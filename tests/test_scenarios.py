"""Synthetic-system construction, sampling determinism, CSV ingestion, and
empirical chance-constraint validation."""

import dataclasses
import math

import numpy as np
import pytest

from storage_pricer.costs import Segment
from storage_pricer.dispatch import solve_dispatch
from storage_pricer.distributions import GaussianModel, VersatileModel
from storage_pricer.errors import DomainError, SchemaError
from storage_pricer.scenarios import (
    NetLoadModel,
    diurnal_profile,
    empirical_violation_rate,
    export_system_csv,
    load_error_samples_csv,
    load_fleet_csv,
    load_system_csv,
    sample_errors,
    sample_net_load,
    synth_test_system,
)


# ---------------------------------------------------------------------------
# synth_test_system
# ---------------------------------------------------------------------------


def test_synth_defaults_match_canonical_sizes():
    system = synth_test_system(seed=0)
    assert system.fleet.total_capacity == pytest.approx(23_100.0)
    assert len(system.fleet.segments) == 76
    assert system.storage.p_max == pytest.approx(2_600.0)
    assert system.storage.e_max == pytest.approx(10_400.0)
    assert system.storage.eta == 0.95
    assert system.storage.marginal_cost == 20.0
    assert system.storage.e_init == pytest.approx(5_200.0)
    assert system.epsilon == 0.05
    assert system.horizon == 24
    assert float(np.mean(system.net_load.forecast)) == pytest.approx(13_000.0, rel=1e-9)


def test_synth_storage_sizing_follows_ratios():
    system = synth_test_system(storage_ratio=0.2, duration_h=4.0, avg_load_mw=13_000.0)
    assert system.storage.p_max == pytest.approx(2_600.0)
    assert system.storage.e_max == pytest.approx(10_400.0)


def test_synth_zero_renewables_keeps_load_error_component():
    system = synth_test_system(renewable_ratio=0.0, seed=2)
    sigma = np.asarray(system.net_load.sigma)
    assert np.all(sigma > 0)
    assert sigma == pytest.approx(0.01 * np.asarray(system.net_load.forecast), rel=1e-12)


def test_synth_rejects_overloaded_fleet():
    with pytest.raises(DomainError):
        synth_test_system(avg_load_mw=22_000.0)


@pytest.mark.parametrize("ratio", ["renewable_ratio", "storage_ratio"])
def test_synth_rejects_negative_capacity_ratio(ratio):
    with pytest.raises(DomainError, match="capacity ratios"):
        synth_test_system(**{ratio: -0.1})


def test_diurnal_profile_resampling():
    for T in (24, 48, 12):
        prof = diurnal_profile(T)
        assert len(prof) == T
        assert float(np.mean(prof)) == pytest.approx(1.0, rel=1e-12)


def test_fleet_merit_order_and_costs_log_spaced():
    system = synth_test_system(seed=5)
    c1 = [seg.c1 for seg in system.fleet.segments]
    assert c1[0] == pytest.approx(10.0)
    assert c1[-1] == pytest.approx(120.0)
    assert all(a <= b for a, b in zip(c1, c1[1:]))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_zero_sigma_returns_forecast():
    system = synth_test_system(seed=1).with_sigma_scale(0.0)
    draws = sample_net_load(system.net_load, 5, seed=3)
    assert np.allclose(draws, np.asarray(system.net_load.forecast), atol=1e-12)


def test_sample_seeded_determinism_bitwise():
    model = synth_test_system(seed=1).net_load
    a = sample_net_load(model, 7, seed=13)
    b = sample_net_load(model, 7, seed=13)
    assert np.array_equal(a, b)
    # prefix stability: first rows identical regardless of n
    c = sample_net_load(model, 3, seed=13)
    assert np.array_equal(a[:3], c)


def test_sample_gaussian_clt_bound():
    model = NetLoadModel(forecast=(100.0,) * 4, mu=(2.0,) * 4, sigma=(5.0,) * 4,
                         model=GaussianModel())
    n = 100_000
    draws = sample_net_load(model, n, seed=5)
    for t in range(4):
        se = 5.0 / math.sqrt(n)
        assert abs(float(np.mean(draws[:, t])) - 102.0) <= 3 * se


def test_sample_versatile_matches_analytic_cdf():
    from scipy import stats

    vm = VersatileModel(a=1.5, b=2.0, c=-0.5)
    model = NetLoadModel(forecast=(0.0,), mu=(0.0,), sigma=(vm.std(),), model=vm)
    n = 4000
    # the 1.36/sqrt(n) KS threshold is a 5%-significance bound, so the seed
    # is pinned; the rejection rate over many seeds sits at 6/100
    draws = sample_net_load(model, n, seed=3)[:, 0]
    ks = stats.kstest(draws + vm.mean(), vm.cdf).statistic
    assert ks <= 1.36 / math.sqrt(n)


# ---------------------------------------------------------------------------
# empirical_violation_rate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_small():
    system = synth_test_system(n_gens=10, total_cap_mw=2000.0, avg_load_mw=1000.0,
                               seed=4, horizon=12, g_min_ratio=0.3)
    sol = solve_dispatch(system)
    assert sol.status == "optimal"
    return system, sol


def test_violation_zero_sigma():
    system = synth_test_system(n_gens=10, total_cap_mw=2000.0, avg_load_mw=1000.0,
                               seed=4, horizon=6, g_min_ratio=0.3).with_sigma_scale(0.0)
    sol = solve_dispatch(system)
    report = empirical_violation_rate(sol, n=500, seed=1)
    assert report["worst_joint"] == 0.0


def test_violation_within_bonferroni_budget(solved_small):
    system, sol = solved_small
    n = 10_000
    report = empirical_violation_rate(sol, n=n, seed=2)
    se = math.sqrt(0.05 * 0.95 / n)
    assert report["worst_joint"] <= 0.05 + 2 * se


def test_violation_detects_deliberate_bound_breach(solved_small):
    import dataclasses

    system, sol = solved_small
    broken = dataclasses.replace(sol, g=sol.g + (system.g_max - sol.g) + 1.0)
    report = empirical_violation_rate(broken, n=2000, seed=3)
    assert float(np.max(report["rates"]["gen_hi"])) > 0.5


def looped_violation_rates(solution, net_load, n, seed):
    """The rates of empirical_violation_rate, computed one period at a time."""
    system = solution.system
    d = sample_errors(net_load, n, seed)
    T = system.horizon
    g, p, b = solution.g, solution.p, solution.b
    phi, psi, e = solution.phi, solution.psi, solution.e

    rates = {"gen_lo": np.zeros(T), "gen_hi": np.zeros(T), "gen_joint": np.zeros(T)}
    has_storage = system.storage is not None
    if has_storage:
        for key in ("charge_hi", "discharge_hi", "soc_lo", "soc_hi", "soc_joint"):
            rates[key] = np.zeros(T)

    for t in range(T):
        x = g[t] + phi[t] * d[:, t]
        lo = x < system.g_min - 1e-9
        hi = x > system.g_max + 1e-9
        rates["gen_lo"][t] = np.mean(lo)
        rates["gen_hi"][t] = np.mean(hi)
        rates["gen_joint"][t] = np.mean(lo | hi)
        if has_storage:
            st = system.storage
            rates["charge_hi"][t] = np.mean(b[t] - psi[t] * d[:, t] > st.p_max + 1e-9)
            rates["discharge_hi"][t] = np.mean(p[t] + psi[t] * d[:, t] > st.p_max + 1e-9)
            s_lo = (psi[t] * d[:, t] + p[t]) / st.eta > e[t] + 1e-9
            s_hi = e[t] > st.e_max - (b[t] - psi[t] * d[:, t]) * st.eta + 1e-9
            rates["soc_lo"][t] = np.mean(s_lo)
            rates["soc_hi"][t] = np.mean(s_hi)
            rates["soc_joint"][t] = np.mean(s_lo | s_hi)
    return rates


@pytest.mark.parametrize("case", ["storage", "no-storage", "breached", "full-reserve"])
def test_violation_rates_equal_per_period_loop(solved_small, case):
    """The array rates and worst joint rate are those of the per-period loop."""
    import dataclasses

    system, sol = solved_small
    if case == "no-storage":
        system = synth_test_system(n_gens=10, total_cap_mw=2000.0, avg_load_mw=1000.0,
                                   seed=4, horizon=12, g_min_ratio=0.3, storage_ratio=0.0)
        sol = solve_dispatch(system)
    elif case == "breached":
        T, st = system.horizon, system.storage
        sol = dataclasses.replace(
            sol, g=np.linspace(system.g_min, system.g_max, T), phi=np.ones(T), psi=np.ones(T),
            p=np.full(T, 0.98 * st.p_max), b=np.full(T, 0.98 * st.p_max),
            e=np.linspace(0.0, st.e_max, T + 1))
    elif case == "full-reserve":
        sol = dataclasses.replace(sol, psi=np.full(system.horizon, 0.7), phi=np.full(system.horizon, 0.3))
    report = empirical_violation_rate(sol, n=3000, seed=5)
    want = looped_violation_rates(sol, system.net_load, n=3000, seed=5)
    assert list(report["rates"]) == list(want)
    for key, rates in want.items():
        assert report["rates"][key].tobytes() == rates.tobytes(), key
    joint = ["gen_joint"] + (["soc_joint", "charge_hi", "discharge_hi"] if system.storage else [])
    assert report["worst_joint"] == max(float(np.max(want[k])) for k in joint)
    if case == "breached":
        assert all(np.any(want[k] > 0) for k in want)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_system_csv_round_trip(tmp_path):
    system = synth_test_system(n_gens=5, total_cap_mw=1000.0, avg_load_mw=500.0,
                               seed=6, horizon=6, g_min_ratio=0.3)
    paths = [tmp_path / name for name in ("fleet.csv", "load.csv", "errors.csv")]
    export_system_csv(system, *paths)
    loaded = load_system_csv(*paths, storage=system.storage, epsilon=system.epsilon,
                             g_min=system.g_min, g_max=system.g_max)
    assert loaded.horizon == system.horizon
    assert loaded.net_load.forecast == pytest.approx(system.net_load.forecast, rel=1e-9)
    assert loaded.net_load.sigma == pytest.approx(system.net_load.sigma, rel=1e-9)
    assert loaded.fleet.total_capacity == pytest.approx(system.fleet.total_capacity, rel=1e-9)
    assert loaded.poly.coeffs == pytest.approx(system.poly.coeffs, rel=1e-6)
    # exporting the loaded system again reproduces the files byte-for-byte
    paths2 = [tmp_path / name for name in ("fleet2.csv", "load2.csv", "errors2.csv")]
    export_system_csv(loaded, *paths2)
    for a, b in zip(paths, paths2):
        assert a.read_text() == b.read_text()


def test_errors_csv_moments_from_samples(tmp_path):
    fleet = tmp_path / "fleet.csv"
    fleet.write_text("gen_id, capacity_mw, c0, c1, c2\ng1,200,0,10,0.01\n")
    load = tmp_path / "load.csv"
    load.write_text("t,d_mw\n1,100\n2,120\n")
    errors = tmp_path / "errors.csv"
    errors.write_text("t,s1,s2,s3,s4\n1,-1,1,-2,2\n2,0,4,-4,0\n")
    system = load_system_csv(fleet, load, errors)
    assert system.net_load.mu == pytest.approx((0.0, 0.0))
    assert system.net_load.sigma[0] == pytest.approx(float(np.std([-1, 1, -2, 2])))
    assert system.net_load.sigma[1] == pytest.approx(float(np.std([0, 4, -4, 0])))


def test_horizon_mismatch_names_both_lengths(tmp_path):
    fleet = tmp_path / "fleet.csv"
    fleet.write_text("gen_id, capacity_mw, c0, c1, c2\ng1,200,0,10,0.01\n")
    load = tmp_path / "load.csv"
    load.write_text("t,d_mw\n1,100\n2,120\n3,90\n")
    errors = tmp_path / "errors.csv"
    errors.write_text("t,mu_mw,sigma_mw\n1,0,5\n2,0,5\n")
    with pytest.raises(SchemaError, match="3 periods.*2"):
        load_system_csv(fleet, load, errors)


def test_rejected_file_changes_nothing(tmp_path):
    fleet = tmp_path / "fleet.csv"
    fleet.write_text("bad_header\n1\n")
    load = tmp_path / "load.csv"
    load.write_text("t,d_mw\n1,100\n")
    errors = tmp_path / "errors.csv"
    errors.write_text("t,mu_mw,sigma_mw\n1,0,5\n")
    with pytest.raises(SchemaError):
        load_system_csv(fleet, load, errors)


FLEET = "gen_id, capacity_mw, c0, c1, c2\ng1,200,0,10,0.01\ng2,100,5,30,0\n"
LOAD = "t,d_mw\n1,100\n2,120\n"
ERRORS = "t,mu_mw,sigma_mw\n1,0,5\n2,1,6\n"
SAMPLES = "error_mw\n1.5\n-2\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def _load(tmp_path, loader, fleet=FLEET, load=LOAD, errors=ERRORS, samples=SAMPLES):
    """What ``loader`` reads from the given file texts, as plain floats."""
    if loader == "fleet":
        fleet = load_fleet_csv(_write(tmp_path, "fleet.csv", fleet))
        return [(s.capacity, s.c0, s.c1, s.c2) for s in fleet.segments]
    if loader == "samples":
        return load_error_samples_csv(_write(tmp_path, "samples.csv", samples)).tolist()
    system = load_system_csv(_write(tmp_path, "fleet.csv", fleet),
                             _write(tmp_path, "load.csv", load),
                             _write(tmp_path, "errors.csv", errors))
    return [system.net_load.forecast, system.net_load.mu, system.net_load.sigma]


SYSTEM_VALUES = [(100.0, 120.0), (0.0, 1.0), (5.0, 6.0)]


@pytest.mark.parametrize("loader, files, where", [
    ("system", {"load": "t,d_mw\n1,100\n2.9,120\n"}, "load.csv:3:"),
    ("system", {"errors": "t,mu_mw,sigma_mw\n1,0,5\n1.5,1,6\n"}, "errors.csv:3:"),
    ("system", {"load": "t,d_mw\n1,100\n1,120\n2,130\n"}, "load.csv:3:"),
    ("system", {"errors": "t,mu_mw,sigma_mw\n1,0,5\n1,1,6\n"}, "errors.csv:3:"),
    ("system", {"errors": "t,s1,s2\n1,-1,1\n1,-2,2\n"}, "errors.csv:3:"),
    ("system", {"load": "t,d_mw\n1,100\n3,120\n"}, "load.csv:3:"),
    ("system", {"load": "t,d_mw\n1,100,7\n2,120\n"}, "load.csv:2:"),
    ("system", {"errors": "t,mu_mw,sigma_mw\n1,0\n2,1,6\n"}, "errors.csv:2:"),
    ("fleet", {"fleet": "gen_id, capacity_mw, c0, c1, c2\ng1,200,0,10\n"}, "fleet.csv:2:"),
    ("samples", {"samples": "error_mw\n1.5\n2,3\n"}, "samples.csv:3:"),
], ids=["fractional-t-load", "fractional-t-errors", "repeated-t-load", "repeated-t-errors",
        "repeated-t-error-samples", "gap-in-t", "columns-load", "columns-errors",
        "columns-fleet", "columns-samples"])
def test_malformed_csv_names_path_and_line(tmp_path, loader, files, where):
    with pytest.raises(SchemaError, match=where):
        _load(tmp_path, loader, **files)


@pytest.mark.parametrize("loader, files, expected", [
    ("fleet", {"fleet": "gen_id,capacity_mw,c0,c1,c2\n\ng1,200,0,10,0.01\n , \ng2,100,5,30,0\n\n"},
     [(200.0, 0.0, 10.0, 0.01), (100.0, 5.0, 30.0, 0.0)]),
    ("system", {"load": "t,d_mw\n\n2,120\n\n1,100\n", "errors": "t,mu_mw,sigma_mw\n1,0,5\n,,\n2,1,6\n"},
     SYSTEM_VALUES),
    ("samples", {"samples": "error_mw\n\n1.5\n \n-2\n"}, [1.5, -2.0]),
    ("fleet", {"fleet": FLEET.replace("\n", "\r\n")}, [(200.0, 0.0, 10.0, 0.01), (100.0, 5.0, 30.0, 0.0)]),
    ("system", {k: v.replace("\n", "\r\n") for k, v in (("fleet", FLEET), ("load", LOAD), ("errors", ERRORS))},
     SYSTEM_VALUES),
    ("samples", {"samples": SAMPLES.replace("\n", "\r\n")}, [1.5, -2.0]),
], ids=["blank-fleet", "blank-system", "blank-samples", "crlf-fleet", "crlf-system", "crlf-samples"])
def test_blank_rows_and_crlf_load_the_same_values(tmp_path, loader, files, expected):
    assert _load(tmp_path, loader, **files) == expected


def test_system_csv_round_trip_keeps_inputs_to_ten_digits(tmp_path):
    """Export, then load with the system's own settings: the forecast, the
    error moments and the fleet come back as written (``.10g``)."""
    system = synth_test_system(n_gens=5, total_cap_mw=1000.0, avg_load_mw=500.0,
                               seed=6, horizon=6, g_min_ratio=0.3, fit_degree=3)
    paths = [tmp_path / name for name in ("fleet.csv", "load.csv", "errors.csv")]
    export_system_csv(system, *paths)
    loaded = load_system_csv(*paths, storage=system.storage, epsilon=system.epsilon,
                             fit_degree=3, g_min=system.g_min, g_max=system.g_max)

    def ten(values):
        return tuple(float(f"{v:.10g}") for v in values)

    net_load = system.net_load
    assert loaded.net_load == dataclasses.replace(
        net_load, forecast=ten(net_load.forecast), mu=ten(net_load.mu), sigma=ten(net_load.sigma))
    assert loaded.fleet.segments == tuple(Segment(*ten((s.capacity, s.c0, s.c1, s.c2)))
                                          for s in system.fleet.segments)
    assert (loaded.storage, loaded.epsilon, loaded.g_min, loaded.g_max, len(loaded.poly.coeffs)) == (
        system.storage, system.epsilon, system.g_min, system.g_max, 4)


def test_net_load_model_validation():
    with pytest.raises(DomainError):
        NetLoadModel(forecast=(1.0, 2.0), mu=(0.0,), sigma=(1.0, 1.0), model=GaussianModel())
    with pytest.raises(DomainError):
        NetLoadModel(forecast=(1.0,), mu=(0.0,), sigma=(-1.0,), model=GaussianModel())
