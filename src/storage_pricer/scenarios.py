"""Test-system synthesis, CSV ingestion, net-load sampling, and empirical
chance-constraint validation.

The synthetic system mirrors the shape of a mid-size ISO fleet: 76 merit-
ordered thermal segments totalling 23.1 GW, a diurnal load profile around a
13 GW average, storage sized as a fraction of average load, and forecast
error proportional to the renewable share.  The load shape and fleet are
synthetic stand-ins, not utility data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import FleetCurve, Segment, StorageSpec, fit_polynomial_to_merit_curve
from .dispatch import SystemSpec
from .distributions import GaussianModel, standardized_draws
from .errors import DomainError, SchemaError

# Normalized diurnal net-load profile (24 points, mean exactly 1 after
# scaling): overnight trough, midday renewable belly, evening peak.
_DIURNAL = np.array([
    0.78, 0.74, 0.71, 0.70, 0.71, 0.75,
    0.84, 0.95, 1.02, 1.05, 1.03, 0.99,
    0.94, 0.90, 0.89, 0.92, 1.02, 1.14,
    1.24, 1.28, 1.22, 1.10, 0.97, 0.86,
])
_DIURNAL = _DIURNAL / _DIURNAL.mean()

# Marginal costs ($/MWh) of the cheapest and the dearest synthetic unit.
MC_LO, MC_HI = 10.0, 120.0


@dataclass(frozen=True)
class NetLoadModel:
    """Per-period net-load forecast with error moments and a shared family."""

    forecast: tuple
    mu: tuple
    sigma: tuple
    model: object

    def __post_init__(self):
        f = tuple(float(v) for v in self.forecast)
        mu = tuple(float(v) for v in self.mu)
        sg = tuple(float(v) for v in self.sigma)
        if not (len(f) == len(mu) == len(sg)):
            raise DomainError(
                f"length mismatch: forecast {len(f)}, mu {len(mu)}, sigma {len(sg)}")
        if any(not math.isfinite(v) for v in f):
            raise DomainError("forecast must be finite")
        if any(s < 0 for s in sg):
            raise DomainError("sigma must be >= 0")
        object.__setattr__(self, "forecast", f)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sg)

    @property
    def horizon(self):
        return len(self.forecast)

    def scaled_sigma(self, scale):
        return replace(self, sigma=tuple(s * scale for s in self.sigma))


def diurnal_profile(horizon):
    """The shipped 24-point shape resampled (periodically) to any horizon."""
    if horizon == 24:
        return _DIURNAL.copy()
    base_x = np.arange(24)
    x = np.linspace(0.0, 24.0, horizon, endpoint=False)
    prof = np.interp(x, np.concatenate([base_x, [24]]), np.concatenate([_DIURNAL, [_DIURNAL[0]]]))
    return prof / prof.mean()


def synth_fleet(n_gens, total_cap_mw, seed):
    """Merit-ordered synthetic fleet with marginal costs log-spaced from
    ``MC_LO`` to ``MC_HI``.

    The log spacing makes the cumulative cost curve convex and roughly
    super-quadratic; segment quadratic terms fill half of each cost gap so
    merit order holds exactly at the boundaries.
    """
    rng = np.random.default_rng([seed, 101])
    weights = rng.dirichlet(np.full(n_gens, 50.0))
    caps = total_cap_mw * weights
    c1 = MC_LO * (MC_HI / MC_LO) ** (np.arange(n_gens) / max(n_gens - 1, 1))
    gaps = np.diff(c1, append=c1[-1] + (c1[-1] - c1[-2] if n_gens > 1 else 1.0))
    segments = tuple(
        Segment(capacity=float(caps[i]), c0=0.0, c1=float(c1[i]),
                c2=float(0.25 * gaps[i] / caps[i]))
        for i in range(n_gens)
    )
    return FleetCurve(segments)


def synth_test_system(
    n_gens=76,
    total_cap_mw=23_100.0,
    avg_load_mw=13_000.0,
    renewable_ratio=0.30,
    storage_ratio=0.20,
    duration_h=4.0,
    eta=0.95,
    marginal_cost=20.0,
    e_init_ratio=0.5,
    epsilon=0.05,
    horizon=24,
    seed=0,
    fit_degree=2,
    g_min_ratio=0.12,
    model=None,
    storage_reserve=True,
    terminal="periodic",
    terminal_value=None,
):
    """Build a full SystemSpec from headline ratios.

    Defaults follow the canonical desk setup: 76 generators / 23.1 GW,
    13 GW average load, 30% renewables, 20% storage at 4 hours, 95%
    efficiency, $20/MWh storage marginal cost, 50% initial SoC, eps=0.05.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if avg_load_mw > 0.85 * total_cap_mw:
        raise DomainError(
            f"average load {avg_load_mw} too close to fleet capacity {total_cap_mw}")
    if n_gens < 1 or total_cap_mw <= 0 or avg_load_mw <= 0:
        raise DomainError("fleet and load sizes must be positive")
    if renewable_ratio < 0 or storage_ratio < 0:
        raise DomainError("capacity ratios must be >= 0")

    fleet = synth_fleet(n_gens, total_cap_mw, seed)
    g_min = g_min_ratio * total_cap_mw
    g_max = total_cap_mw
    poly = fit_polynomial_to_merit_curve(fleet, fit_degree, domain=(g_min, g_max))

    profile = diurnal_profile(horizon)
    forecast = avg_load_mw * profile
    sigma_frac = 0.01 + 0.05 * renewable_ratio
    sigma = sigma_frac * forecast
    mu = np.zeros(horizon)

    storage = None
    if storage_ratio > 0:
        p_max = storage_ratio * avg_load_mw
        e_max = p_max * duration_h
        storage = StorageSpec(p_max=p_max, e_max=e_max, eta=eta,
                              marginal_cost=marginal_cost, e_init=e_init_ratio * e_max)

    net_load = NetLoadModel(
        forecast=tuple(forecast), mu=tuple(mu), sigma=tuple(sigma),
        model=model if model is not None else GaussianModel(),
    )
    return SystemSpec(
        horizon=horizon, net_load=net_load, poly=poly, fleet=fleet,
        storage=storage, g_min=g_min, g_max=g_max, epsilon=epsilon,
        terminal=terminal, terminal_value=terminal_value,
        storage_reserve=storage_reserve,
    )


def sample_net_load(net_load, n, seed):
    """n independent net-load trajectories D_t + d_t, (n, T) matrix.

    Per-period errors are drawn independently; each scenario uses its own
    RNG stream derived from (seed, scenario index), so the matrix is
    reproducible row by row regardless of n.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 scenarios, got {n}")
    T = net_load.horizon
    D = np.asarray(net_load.forecast)
    mu = np.asarray(net_load.mu)
    sigma = np.asarray(net_load.sigma)

    def draw(i):
        rng = np.random.default_rng([seed, i])
        return D + mu + sigma * standardized_draws(net_load.model, T, rng)

    return np.array([draw(i) for i in range(n)])


def sample_errors(net_load, n, seed):
    """n x T matrix of forecast errors d_t (no forecast added)."""
    return sample_net_load(net_load, n, seed) - np.asarray(net_load.forecast)


def empirical_violation_rate(solution, n=10_000, seed=0):
    """Monte Carlo check of the original chance constraints at fixed
    first-stage decisions, on errors sampled from the solution's system.

    Returns per-constraint violation frequencies and the joint frequency of
    each two-sided group (generator bounds, SoC bounds), all per period,
    plus the worst joint rate across groups.
    """
    system = solution.system
    d = sample_errors(system.net_load, n, seed)
    g, p, b = solution.g, solution.p, solution.b
    phi, psi, e = solution.phi, solution.psi, solution.e[:-1]

    def rate(violated):
        return np.mean(violated, axis=0)

    x = g + phi * d
    lo = x < system.g_min - 1e-9
    hi = x > system.g_max + 1e-9
    rates = {"gen_lo": rate(lo), "gen_hi": rate(hi), "gen_joint": rate(lo | hi)}
    has_storage = system.storage is not None
    if has_storage:
        st = system.storage
        reserve = psi * d
        s_lo = (reserve + p) / st.eta > e + 1e-9
        s_hi = e > st.e_max - (b - reserve) * st.eta + 1e-9
        rates.update({
            "charge_hi": rate(b - reserve > st.p_max + 1e-9),
            "discharge_hi": rate(p + reserve > st.p_max + 1e-9),
            "soc_lo": rate(s_lo), "soc_hi": rate(s_hi), "soc_joint": rate(s_lo | s_hi),
        })

    joint_keys = ["gen_joint"] + (["soc_joint", "charge_hi", "discharge_hi"] if has_storage else [])
    worst = max(float(np.max(rates[k])) for k in joint_keys)
    return {"rates": rates, "worst_joint": worst, "n": n}


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------


def _read_csv(path, header, prefix=False):
    """The stripped header and the (line, stripped cells) of each non-blank row
    of a CSV file.  The header must equal ``header``, or begin with it when
    ``prefix`` is set.  Every error names ``path:line``, and a file that
    cannot be read or is not UTF-8 is refused naming ``path``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [[c.strip() for c in row] for row in csv.reader(fh)]
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read the file: {exc}") from None
    head = rows[0] if rows else []
    if (head[:len(header)] if prefix else head) != header:
        raise SchemaError(f"{path}:1: expected header {header}{' ...' if prefix else ''}, got {head}")
    return head, [(line, row) for line, row in enumerate(rows[1:], start=2) if any(row)]


def write_csv(path, header, rows):
    """Write ``header`` and then each of ``rows`` (sequences of cells) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _floats(path, line, row, ncols=None, start=0):
    """Cells ``start:`` of a row as floats, after checking the row has ``ncols`` cells."""
    if ncols is not None and len(row) != ncols:
        raise SchemaError(f"{path}:{line}: expected {ncols} columns, got {len(row)}")
    try:
        return [float(c) for c in row[start:]]
    except ValueError:
        raise SchemaError(f"{path}:{line}: not a number in {row[start:]}") from None


def _by_period(path, rows, ncols=None):
    """{t: the other cells as floats} of a file keyed by period ``t``.  Each
    ``t`` must be a new integer in 1..T, T being the number of rows."""
    out = {}
    for line, row in rows:
        t, *values = _floats(path, line, row, ncols)
        if not (t.is_integer() and 1 <= t <= len(rows)) or t in out:
            raise SchemaError(
                f"{path}:{line}: period {row[0]!r} is not a new integer in 1..{len(rows)}")
        out[int(t)] = values
    return out


def load_fleet_csv(path):
    """Read a fleet from CSV columns ``gen_id, capacity_mw, c0, c1, c2``."""
    _, rows = _read_csv(path, ["gen_id", "capacity_mw", "c0", "c1", "c2"])
    if not rows:
        raise SchemaError(f"{path}:2: no generator rows")
    return FleetCurve(tuple(Segment(*_floats(path, line, row, 5, start=1)) for line, row in rows))


def load_error_samples_csv(path):
    """Read historical error samples from a single-column CSV with header ``error_mw``."""
    _, rows = _read_csv(path, ["error_mw"])
    return np.asarray([_floats(path, line, row, 1)[0] for line, row in rows], dtype=float)


def load_system_csv(fleet_path, load_path, errors_path, *, storage=None,
                    epsilon=0.05, fit_degree=2, g_min=0.0, g_max=None,
                    model=None, storage_reserve=True, terminal="periodic",
                    terminal_value=None):
    """Assemble a SystemSpec from three CSV files.

    * fleet: ``gen_id, capacity_mw, c0, c1, c2``
    * load:  ``t, d_mw``
    * errors: ``t, mu_mw, sigma_mw`` or ``t, <sample columns...>`` (moments
      are then estimated from the per-period samples)

    The periods ``t`` of each file are the integers 1..T, each once, in any order.
    """
    fleet = load_fleet_csv(fleet_path)
    forecast = _by_period(load_path, _read_csv(load_path, ["t", "d_mw"])[1], 2)

    header, rows = _read_csv(errors_path, ["t"], prefix=True)
    if header == ["t", "mu_mw", "sigma_mw"]:
        moments = _by_period(errors_path, rows, 3)
    else:
        moments = _by_period(errors_path, rows)
        for line, row in rows:
            if len(row) < 3:
                raise SchemaError(f"{errors_path}:{line}: need >= 2 samples to estimate moments")
        moments = {t: (float(np.mean(s)), float(np.std(s))) for t, s in moments.items()}

    if len(forecast) != len(moments):
        raise SchemaError(
            f"{errors_path}:1: horizon mismatch: load file has {len(forecast)} periods, "
            f"errors file has {len(moments)}")
    periods = range(1, len(forecast) + 1)

    g_max = fleet.total_capacity if g_max is None else g_max
    poly = fit_polynomial_to_merit_curve(fleet, fit_degree, domain=(g_min, g_max))
    net_load = NetLoadModel(
        forecast=tuple(forecast[t][0] for t in periods),
        mu=tuple(moments[t][0] for t in periods),
        sigma=tuple(moments[t][1] for t in periods),
        model=model if model is not None else GaussianModel(),
    )
    return SystemSpec(
        horizon=len(periods), net_load=net_load, poly=poly, fleet=fleet,
        storage=storage, g_min=g_min, g_max=g_max, epsilon=epsilon,
        terminal=terminal, terminal_value=terminal_value,
        storage_reserve=storage_reserve,
    )


def export_system_csv(system, fleet_path, load_path, errors_path):
    """Write the three ingestion files for a system (inverse of load_system_csv)."""
    net, periods = system.net_load, range(1, system.horizon + 1)
    write_csv(fleet_path, ["gen_id", "capacity_mw", "c0", "c1", "c2"],
              ([f"g{i + 1}", f"{seg.capacity:.10g}", f"{seg.c0:.10g}", f"{seg.c1:.10g}",
                f"{seg.c2:.10g}"] for i, seg in enumerate(system.fleet.segments)))
    write_csv(load_path, ["t", "d_mw"], ([t, f"{net.forecast[t - 1]:.10g}"] for t in periods))
    write_csv(errors_path, ["t", "mu_mw", "sigma_mw"],
              ([t, f"{net.mu[t - 1]:.10g}", f"{net.sigma[t - 1]:.10g}"] for t in periods))
