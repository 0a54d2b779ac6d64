"""The sparse KKT solve path against a dense oracle, the active-set polish on
dependent rows, a long horizon, and the refilled KKT pattern against
scipy.sparse block assembly.

``dense_solve_convex`` below is the dense interior-point solver the sparse
path replaced, kept here as the reference: the same Mehrotra iteration, the
same regularisations and the same polish, with dense LU factors, a dense
``lstsq`` start point and ``G^T W G`` formed densely.  Its polish searches
the active set with the solver's rounds, one Newton step each, and drops
active rows whose multiplier is negative beyond rounding, like the solver's.

``block_kkt`` and ``block_ipm_kkt`` assemble the KKT matrices the way the
solver did before it built each pattern once and refilled its values: sparse
products, sums and ``block_array``.  The refill must reproduce their values
exactly, because the prices of dual-degenerate dispatches follow the
factors.  The pattern may store more: the exact zeros that scipy's sums
drop, which neither the band LU nor a product sees.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qp import quadratic_program

from storage_pricer.dispatch import _extract_solution, build_dispatch, solve_dispatch
from storage_pricer.scenarios import synth_test_system
from storage_pricer.solver import (
    INFEASIBLE,
    ITER_LIMIT,
    OPTIMAL,
    SolveResult,
    _kkt_solver,
    _KKTPattern,
    _matvec,
    solve_convex,
)
from storage_pricer.theory import verify_price_coupling

# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------


def _dense(M):
    return M.toarray() if scipy.sparse.issparse(M) else np.atleast_2d(np.asarray(M, dtype=float))


def dense_hessian(prog, x):
    """A program's Hessian at x as a dense array, its listed entries summed."""
    H = np.zeros((prog.n, prog.n))
    np.add.at(H, (prog.hess_rows, prog.hess_cols), prog.hess(x))
    return H


class DenseProgram:
    """A program's data with dense A, G and Hessian."""

    def __init__(self, prog):
        self.n, self.b, self.h = prog.n, prog.b, prog.h
        self.A, self.G = _dense(prog.A), _dense(prog.G)
        self.value, self.grad = prog.value, prog.grad
        self._prog = prog

    def hess(self, x):
        return dense_hessian(self._prog, x)


def _lu_factor(K):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(K)
    pivots = np.diag(lu[0])
    return lu if np.all(np.isfinite(pivots) & (pivots != 0.0)) else None


def _residuals(prog, x, y, z, s):
    r_d = prog.grad(x) + prog.A.T @ y + prog.G.T @ z
    return r_d, prog.A @ x - prog.b, prog.G @ x + s - prog.h, s * z


def _report(prog, x, y, z, s):
    r_d, r_p, r_g, comp = _residuals(prog, x, y, z, s)
    return {
        "stationarity": float(np.linalg.norm(r_d, np.inf)) if r_d.size else 0.0,
        "primal_eq": float(np.linalg.norm(r_p, np.inf)) if r_p.size else 0.0,
        "primal_ineq": float(np.linalg.norm(r_g, np.inf)) if r_g.size else 0.0,
        "complementarity": float(np.max(np.abs(comp))) if comp.size else 0.0,
    }


def _merit(prog, x, y, z, s, mu):
    r_d, r_p, r_g, comp = _residuals(prog, x, y, z, s)
    pieces = [r_d, r_p, r_g] + ([comp - mu] if comp.size else [])
    return float(np.sqrt(sum(float(v @ v) for v in pieces)))


def _step_to_boundary(v, dv):
    neg = dv < 0
    return min(1.0, float(np.min(-v[neg] / dv[neg]))) if np.any(neg) else 1.0


def _polish_solve(prog, x0, active):
    """Yields (x, y, z of the active rows) after each of three Newton steps
    from x0, or None and stops when a factorisation fails."""
    Ga, ha = prog.G[active], prog.h[active]
    n, p, ka = prog.n, prog.A.shape[0], int(np.sum(active))
    xx = x0.copy()
    for _ in range(3):
        H = prog.hess(xx)
        K0 = np.zeros((n + p + ka, n + p + ka))
        K0[:n, :n] = H
        K0[:n, n:n + p] = prog.A.T
        K0[n:n + p, :n] = prog.A
        K0[:n, n + p:] = Ga.T
        K0[n + p:, :n] = Ga
        K = K0.copy()
        K[:n, :n] += 1e-14 * max(1.0, float(np.linalg.norm(H, np.inf))) * np.eye(n)
        K[n:, n:] -= 1e-13 * np.eye(p + ka)
        rhs = np.concatenate([-prog.grad(xx), prog.b - prog.A @ xx, ha - Ga @ xx])
        lu = _lu_factor(K)
        if lu is None:
            yield None
            return
        sol = scipy.linalg.lu_solve(lu, rhs)
        for _ in range(3):
            sol += scipy.linalg.lu_solve(lu, rhs - K0 @ sol)
        if not np.all(np.isfinite(sol)):
            yield None
            return
        xx = xx + sol[:n]
        yield xx, sol[n:n + p], sol[n + p:]


def _polish(prog, x, z, s, tol):
    """The solver's search: a round decides from one Newton step, and a
    round that changes nothing finishes the run and checks its last step."""
    m = prog.h.size
    if m == 0:
        *_, out = _polish_solve(prog, x, np.zeros(0, dtype=bool))
        return None if out is None else (out[0], out[1], np.zeros(0), np.zeros(0))
    scale_h = 1.0 + np.abs(prog.h)
    active = (z > s) | (s <= 1e3 * tol * scale_h)

    def flips(out):
        xx, _, za = out
        flip = (prog.G @ xx - prog.h > 10 * tol * scale_h) & ~active
        flip[active] = za < -1e-12
        return flip

    for _ in range(8):
        steps = _polish_solve(prog, x, active)
        out = next(steps)
        if out is not None and not flips(out).any():
            *_, out = steps
        if out is None:
            return None
        flip = flips(out)
        if not flip.any():
            break
        active = active ^ flip
    else:
        return None
    xx, yy, za = out
    zz = np.zeros(m)
    zz[active] = np.maximum(za, 0.0)
    ss = prog.h - prog.G @ xx
    if np.min(ss) < -10 * tol:
        return None
    return xx, yy, zz, np.maximum(ss, 0.0)


def _phase1_min_violation(prog):
    n, m, p = prog.n, prog.G.shape[0], prog.A.shape[0]
    G1 = np.vstack([np.hstack([prog.G, -np.ones((m, 1))]), np.concatenate([np.zeros(n), [-1.0]])])
    A1 = np.hstack([prog.A, np.zeros((p, 1))])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    aux = quadratic_program(np.zeros((n + 1, n + 1)), c, A=A1, b=prog.b, G=G1,
                            h=np.concatenate([prog.h, [1.0]]))
    res = dense_solve_convex(aux, tol=1e-9, iter_cap=100, _diagnose=False)
    return float(res.x[-1]) if res.status in (OPTIMAL, ITER_LIMIT) else np.inf


@dataclasses.dataclass
class DenseResult(SolveResult):
    damped_steps: int = 0     # steps taken at less than full length


def dense_solve_convex(program, tol=1e-8, iter_cap=200, _diagnose=True):
    """The dense reference solver; same contract as ``solve_convex``."""
    prog = DenseProgram(program)
    n, p, m = prog.n, prog.A.shape[0], prog.G.shape[0]
    x = np.zeros(n)
    if p:
        x, *_ = np.linalg.lstsq(prog.A, prog.b, rcond=None)
        if np.linalg.norm(prog.A @ x - prog.b, np.inf) > 1e-8 * (1.0 + np.linalg.norm(prog.b, np.inf)):
            inf = {k: np.inf for k in ("stationarity", "primal_eq", "primal_ineq", "complementarity")}
            return SolveResult(x, np.zeros(p), np.zeros(m), np.zeros(m), INFEASIBLE, inf, np.nan, 0)
    raw = prog.h - prog.G @ x
    s = raw + max(0.0, -float(np.min(raw))) + max(1.0, 0.01 * float(np.linalg.norm(prog.h, np.inf)))
    z, y = np.ones(m), np.zeros(p)
    best, best_mu, status, stall, it, damped = None, np.inf, ITER_LIMIT, 0, 0, 0
    for it in range(1, iter_cap + 1):
        H = prog.hess(x)
        r_d, r_p, r_g, comp = _residuals(prog, x, y, z, s)
        if not all(np.all(np.isfinite(v)) for v in (x, y, z, s, r_d, r_p, r_g)):
            break
        mu = float(np.mean(comp))
        res_now = max(float(np.linalg.norm(r_d, np.inf)),
                      float(np.linalg.norm(r_p, np.inf)) if p else 0.0,
                      float(np.linalg.norm(r_g, np.inf)), float(np.max(comp)))
        improved = False
        if best is None or res_now < 0.999 * best[0]:
            best, improved = (res_now, x.copy(), y.copy(), z.copy(), s.copy()), True
        if mu < 0.999 * best_mu:
            best_mu, improved = mu, True
        stall = 0 if improved else stall + 1
        if stall >= 30:
            break
        if res_now <= tol:
            status = OPTIMAL
            break
        w = np.minimum(z / np.maximum(s, 1e-300), 1e18)
        K = np.zeros((n + p, n + p))
        K[:n, :n] = H + (prog.G.T * w) @ prog.G + 1e-11 * max(1.0, float(np.linalg.norm(H, np.inf))) * np.eye(n)
        K[:n, n:] = prog.A.T
        K[n:, :n] = prog.A
        K[n:, n:] = -1e-12 * np.eye(p)
        if not np.all(np.isfinite(K)):
            break
        lu = _lu_factor(K)
        if lu is None:
            K[:n, :n] += 1e-6 * np.eye(n)
            lu = _lu_factor(K)
        if lu is None:
            break

        def newton(r_c):
            rhs = np.concatenate([-r_d - prog.G.T @ ((-r_c + z * r_g) / s), -r_p])
            sol = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
            sol -= scipy.linalg.lu_solve(lu, K @ sol - rhs, check_finite=False)
            dx, dy = sol[:n], sol[n:]
            ds = -r_g - prog.G @ dx
            return dx, dy, (-r_c - z * ds) / s, ds

        dxa, dya, dza, dsa = newton(comp)
        ap, ad = _step_to_boundary(s, dsa), _step_to_boundary(z, dza)
        mu_aff = float((s + ap * dsa) @ (z + ad * dza)) / m
        sigma = np.clip((mu_aff / mu) ** 3 if mu > 0 else 0.1, 1e-8, 0.9999)
        dx, dy, dz, ds = newton(comp + dsa * dza - sigma * mu)
        frac = min(0.9999, max(0.995, 1.0 - 10.0 * mu))
        ap = _step_to_boundary(s, ds) * frac if np.any(ds < 0) else 1.0
        ad = _step_to_boundary(z, dz) * frac if np.any(dz < 0) else 1.0
        target_mu = sigma * mu
        m0 = _merit(prog, x, y, z, s, target_mu)
        scale_k, cand = 1.0, None
        for _ in range(16):
            cand = (x + scale_k * ap * dx, y + scale_k * ad * dy,
                    z + scale_k * ad * dz, s + scale_k * ap * ds)
            if np.min(cand[3]) > 0 and np.min(cand[2]) > 0:
                if _merit(prog, *cand, target_mu) <= 10.0 * m0:
                    break
            scale_k *= 0.5
        x, y, z, s = cand
        damped += scale_k < 1.0
    if status != OPTIMAL and best is not None:
        _, x, y, z, s = best
    if status in (OPTIMAL, ITER_LIMIT) and best is not None and best[0] <= np.sqrt(tol):
        polished = _polish(prog, x, z, s, tol)
        if polished is not None and max(_report(prog, *polished).values()) < max(_report(prog, x, y, z, s).values()):
            x, y, z, s = polished
        if max(_report(prog, x, y, z, s).values()) <= tol:
            status = OPTIMAL
    if status == ITER_LIMIT and _diagnose:
        if _phase1_min_violation(prog) > 1e-7 * (1.0 + float(np.linalg.norm(prog.h, np.inf))):
            status = INFEASIBLE
    report = _report(prog, x, y, z, s)
    if status == OPTIMAL and max(report.values()) > 10 * tol:
        status = ITER_LIMIT
    return DenseResult(x=x, eq_duals=y, ineq_duals=z, slacks=s, status=status, residuals=report,
                       objective=float(prog.value(x)), iterations=it, damped_steps=damped)


# ---------------------------------------------------------------------------
# small QPs: sparse against dense
# ---------------------------------------------------------------------------

QP_KINDS = ("feasible", "rank_deficient", "inconsistent", "infeasible")


def small_qp(kind, n, p, m, seed):
    """A strictly convex QP of the given kind from one seed.

    feasible: random equalities and inequalities that x0 satisfies strictly;
    rank_deficient: the last equality is a combination of the others;
    inconsistent: as rank_deficient, with that row's rhs moved off;
    infeasible: two inequality rows that no x satisfies together.
    """
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(n, n))
    Q = L @ L.T + 0.5 * np.eye(n)
    x0 = rng.normal(size=n)
    A = rng.normal(size=(p, n))
    if kind in ("rank_deficient", "inconsistent"):
        A = np.vstack([A, rng.normal(size=p) @ A])
    b = A @ x0
    if kind == "inconsistent":
        b[-1] += 1.0 + abs(b[-1])
    G = rng.normal(size=(m, n))
    h = G @ x0 + rng.uniform(0.1, 2.0, size=m)
    if kind == "infeasible":
        v = rng.normal(size=n)
        G = np.vstack([G, v, -v])
        h = np.concatenate([h, [v @ x0 - 1.0, -(v @ x0)]])
    return quadratic_program(Q, rng.normal(size=n), A=A, b=b, G=G, h=h)


EXPECTED_STATUS = {"feasible": OPTIMAL, "rank_deficient": OPTIMAL,
                   "inconsistent": INFEASIBLE, "infeasible": INFEASIBLE}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(QP_KINDS), n=st.integers(1, 6), p=st.integers(0, 3),
       m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_small_qp_matches_dense_oracle(kind, n, p, m, seed):
    prog = small_qp(kind, n, min(p, n), m, seed)
    got, want = solve_convex(prog), dense_solve_convex(prog)
    assert got.status == want.status == EXPECTED_STATUS[kind]
    if want.status != OPTIMAL:
        return
    assert got.max_residual <= 1e-7 and want.max_residual <= 1e-7
    np.testing.assert_allclose(got.x, want.x, rtol=1e-8, atol=1e-8)
    assert got.objective == pytest.approx(want.objective, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# T=24 dispatch battery: sparse against dense
# ---------------------------------------------------------------------------


def pool_system(index, master_seed=2024):
    """The 24-period battery-style system the day24 benchmark pool draws as
    ``index`` (master seed 2024): degree 2, 2, 2, 3, 3 by position."""
    rng = np.random.default_rng([master_seed, index])
    total_cap = float(rng.uniform(8_000, 25_000))
    return synth_test_system(
        n_gens=int(rng.integers(16, 77)), total_cap_mw=total_cap,
        avg_load_mw=float(rng.uniform(0.45, 0.65)) * total_cap,
        renewable_ratio=float(rng.uniform(0.1, 0.5)),
        storage_ratio=float(rng.uniform(0.1, 0.3)),
        duration_h=float(rng.uniform(2.0, 8.0)),
        eta=float(rng.uniform(0.85, 0.999)),
        marginal_cost=float(rng.uniform(5.0, 40.0)),
        e_init_ratio=float(rng.uniform(0.2, 0.8)),
        epsilon=(0.01, 0.05, 0.1)[index % 3], horizon=24,
        seed=int(rng.integers(0, 10_000)), fit_degree=(2, 2, 2, 3, 3)[index % 5],
        g_min_ratio=float(rng.uniform(0.25, 0.35)))


def unique_eq_duals(prog, result):
    """Per equality row: is its dual the same at every KKT multiplier of the
    result's primal point?

    The multipliers solve A^T y + G_act^T z = -grad f over the active rows.
    A row's dual is unique when no null direction of [A^T G_act^T] moves it.
    A list of weakly active rows cannot tell: every system of this battery
    has some.
    """
    active = result.slacks <= 1e-7 * (1.0 + np.abs(prog.h))
    M = np.hstack([prog.A.toarray().T, prog.G.toarray()[active].T])
    _, sv, vt = np.linalg.svd(M)
    null = vt[int(np.sum(sv > 1e-9 * sv[0])):]
    return np.all(np.abs(null[:, :prog.A.shape[0]]) <= 1e-9, axis=0)


def test_dispatch_battery_matches_dense_oracle():
    """lambda and the objective match everywhere; theta and pi match to 1e-8
    of their scale on every period where they are unique.  Where they are not
    (systems 2 and 11 here), certified solves differ by up to 1e-5.  Some
    quadratic system (1 here) takes a step at less than full length, so the
    damped step is compared on a quadratic objective too."""
    compared = {"lam": 0, "theta": 0, "pi": 0}
    damped_quadratic = 0
    for i in range(12):
        system = pool_system(i, master_seed=424)
        build = build_dispatch(system)
        raw = dense_solve_convex(build.program)
        damped_quadratic += system.poly.degree == 2 and raw.damped_steps > 0
        got = _extract_solution(build, solve_convex(build.program))
        want = _extract_solution(build, raw)
        assert got.status == want.status == OPTIMAL, i
        assert max(got.residuals.values()) <= 1e-7, i
        assert got.objective == pytest.approx(want.objective, rel=1e-8), i
        unique = unique_eq_duals(build.program, raw)
        for name, kind in (("lam", "balance"), ("theta", "soc"), ("pi", "reserve")):
            a, b = getattr(got, name), getattr(want, name)
            periods, positions = build.eq_rows[kind]
            assert periods.tolist() == list(range(1, len(b) + 1))
            rows = unique[positions]
            assert name != "lam" or rows.all(), i
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.all(np.abs(a - b)[rows] <= 1e-8 * scale), (i, name)
            compared[name] += int(rows.sum())
    # theta is unique on 216 of the 288 periods here, pi on 34
    assert compared["lam"] == 12 * 24 and compared["theta"] > 0 and compared["pi"] > 0
    assert damped_quadratic > 0
# ---------------------------------------------------------------------------
# polish on linearly dependent active rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", [26, 78, 161, 174])
def test_polish_on_dependent_reserve_rows(index):
    """kappa_phi_lo and kappa_psi_hi are tied through phi + psi = 1.  When
    both are active the polish splits one multiplier between them, e.g.
    +-1.5e-8; the negative half must be dropped, not clipped, or the polish
    is rejected and the unpolished iterate sits elsewhere on the dual face
    (theta off by 34% on system 78).  Which pool systems split that way
    depends on the factorisation's ordering: 26, 161 and 174 do with the
    sparse path, 78 did in a prototype with another assembly order."""
    sol = solve_dispatch(pool_system(index))
    assert sol.status == OPTIMAL
    assert max(sol.residuals.values()) <= 1e-10
    assert sol.equilibrium["ok"]


# ---------------------------------------------------------------------------
# a free-terminal solve that walks away from its best iterate
# ---------------------------------------------------------------------------


def test_drifting_solve_stops_at_its_polishable_iterate():
    """Criterion 2's free-terminal system at e0 = 0.35 E_max: the residual
    falls below sqrt(TOL), then grows more than a hundredfold, and a loop
    that ran on took 101 iterations to return that best iterate.  The solve
    stops once the residual has grown, polishes the best iterate and ends
    optimal in at most 35 iterations; lambda and every theta that is unique
    equal the dense oracle's, which runs on, to 1e-6 of their scale."""
    system = dataclasses.replace(synth_test_system(seed=0, fit_degree=3), terminal="free")
    build = build_dispatch(system.with_initial_soc(0.35 * system.storage.e_max))
    result = solve_convex(build.program)
    assert result.status == OPTIMAL and result.polished
    assert result.iterations <= 35
    raw = dense_solve_convex(build.program)
    assert raw.status == OPTIMAL and raw.iterations > 35
    got, want = _extract_solution(build, result), _extract_solution(build, raw)
    unique = unique_eq_duals(build.program, raw)
    for name, kind in (("lam", "balance"), ("theta", "soc")):
        rows = unique[build.eq_rows[kind][1]]
        a, b = getattr(got, name), getattr(want, name)
        assert rows.any() and (name != "lam" or rows.all())
        assert np.all(np.abs(a - b)[rows] <= 1e-6 * max(1.0, float(np.max(np.abs(b))))), name


# ---------------------------------------------------------------------------
# long horizon
# ---------------------------------------------------------------------------


def test_month_horizon_solves():
    system = synth_test_system(horizon=720, fit_degree=3)
    t0 = time.monotonic()
    sol = solve_dispatch(system)
    elapsed = time.monotonic() - t0
    assert sol.status == OPTIMAL
    assert max(sol.residuals.values()) <= 1e-7
    assert sol.equilibrium["ok"]
    assert verify_price_coupling(sol)["ok"]
    assert elapsed <= 60.0, f"T=720 solve took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# KKT refill against scipy.sparse block assembly
# ---------------------------------------------------------------------------


def block_kkt(top, B, lower):
    """[[top, B^T], [B, -lower * I]] assembled from scipy.sparse blocks."""
    k = B.shape[0]
    return scipy.sparse.block_array(
        [[top, B.T], [B, scipy.sparse.diags_array(np.full(k, -lower), shape=(k, k))]], format="csc")


def block_ipm_kkt(H, A, G, w):
    """The interior-point matrix, its 1e-6 retry and the Hessian scale, from
    sparse products and sums."""
    n, p = A.shape[1], A.shape[0]
    H = scipy.sparse.csr_array(H)
    K11 = H + (G.T.tocsr() @ scipy.sparse.diags_array(w)) @ G if G.shape[0] else H
    scale = max(1.0, float(scipy.sparse.linalg.norm(H, np.inf)))
    K = block_kkt(K11 + 1e-11 * scale * scipy.sparse.eye_array(n), A, 1e-12)
    retry = (K + scipy.sparse.diags_array(np.concatenate([np.full(n, 1e-6), np.zeros(p)]))).tocsc()
    return K, retry, scale


def pattern_matrix(pattern, data):
    """The matrix with values ``data`` in ``pattern``: a CSC array, every entry stored."""
    return scipy.sparse.csc_array((data, pattern.rows, pattern.indptr), shape=(pattern.N, pattern.N))


def assert_same_values(pattern, data, want):
    """The matrix with values ``data`` in ``pattern`` equals ``want`` value
    for value, in dense form."""
    assert np.array_equal(pattern_matrix(pattern, data).toarray(), want.toarray())


def random_csr(rng, rows, cols, density, zeros):
    """CSR with random entries over several magnitudes; ``zeros`` of them are stored zeros."""
    M = scipy.sparse.random_array((rows, cols), density=density, rng=rng, format="csr")
    M.data = rng.standard_normal(M.nnz) * 10.0 ** rng.uniform(-3, 3, M.nnz)
    M.data[rng.permutation(M.nnz)[:zeros]] = 0.0
    return M


def refill_case(seed, n, p, m, g_rows):
    rng = np.random.default_rng(seed)
    A = random_csr(rng, p, n, float(rng.uniform(0.1, 0.8)), int(rng.integers(0, 2)))
    G = random_csr(rng, m, n, float(rng.uniform(0.05, 0.5)), int(rng.integers(0, 3)))
    if m and g_rows == "dense":
        G = scipy.sparse.csr_array(scipy.sparse.vstack([G[: m - 1], np.ones((1, n))]))
    elif m and g_rows == "single":
        G = scipy.sparse.csr_array((rng.standard_normal(m), (np.arange(m), rng.integers(0, n, m))),
                                   shape=(m, n))
    Hs = random_csr(rng, n, n, float(rng.uniform(0.0, 0.5)), 0)
    H = scipy.sparse.coo_array(Hs + Hs.T)
    H.data[rng.permutation(H.nnz)[: int(rng.integers(0, 3))]] = 0.0
    w = 10.0 ** rng.uniform(-8, 10, m)
    w[rng.permutation(m)[: int(rng.integers(0, 2))]] = 0.0
    return A, G, H, w


def declared_hessian(seed, n, H):
    """H's entries as declared positions and values, plus a diagonal entry
    listed twice (two values, summed) and an explicit zero; the zero sits off
    the diagonal where H has no entry when there is such a place.  Returns
    (rows, cols, values, zero position or None, H with the listed entries
    summed as scipy sums them)."""
    rng = np.random.default_rng(seed)
    i = int(rng.integers(n))
    on_i = (H.row == i) & (H.col == i)
    held = set(zip(H.row.tolist(), H.col.tolist()))
    free = [(r, c) for r in range(n) for c in range(n) if r != c and (r, c) not in held]
    zero = free[int(rng.integers(len(free)))] if free else None
    r0, c0 = zero if zero else (i, i)
    split = [H.data[on_i][0] if on_i.any() else rng.standard_normal(), rng.standard_normal()]
    rows = np.concatenate([H.row[~on_i], [i, i, r0]])
    cols = np.concatenate([H.col[~on_i], [i, i, c0]])
    values = np.concatenate([H.data[~on_i], split, [0.0]])
    return rows, cols, values, zero, scipy.sparse.coo_array((values, (rows, cols)), shape=(n, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), p=st.integers(0, 5),
       m=st.integers(0, 14), g_rows=st.sampled_from(["random", "dense", "single"]))
def test_refilled_kkt_equals_block_assembly(seed, n, p, m, g_rows):
    """The pattern refill gives the block-assembled matrices exactly: the
    interior-point matrix with its regularisation, its 1e-6 retry, the
    polish pair and the start-point pair, with empty A or G, dense and
    one-entry G rows, stored zeros, zero barrier weights, a Hessian entry
    declared twice and a declared entry that is zero."""
    A, G, H, w = refill_case(seed, n, p, m, g_rows)
    rows, cols, values, zero, H = declared_hessian(seed, n, H)
    K_want, retry_want, scale_want = block_ipm_kkt(H, A, G, w)

    pattern = _KKTPattern(n, A, G, rows, cols)
    hv, scale = pattern.hessian(values)
    assert scale == scale_want
    data = pattern.fill(hv, w, reg=1e-11 * scale, delta=1e-12)
    assert_same_values(pattern, data, K_want)
    data[pattern.diag[:n]] += 1e-6
    assert_same_values(pattern, data, retry_want)

    # active-set polish: no barrier term, A stacked over some rows of G
    B = scipy.sparse.vstack([A, G[: m // 2]], format="csr")
    polish = _KKTPattern(n, B, hess_rows=rows, hess_cols=cols)
    hv, scale = polish.hessian(values)
    Hc = scipy.sparse.csr_array(H)
    assert_same_values(polish, polish.fill(hv), block_kkt(Hc, B, 0.0))
    assert_same_values(polish, polish.fill(hv, reg=1e-14 * scale, delta=1e-13),
                       block_kkt(Hc + 1e-14 * scale * scipy.sparse.eye_array(n), B, 1e-13))
    if zero:
        # the declared zero entry is in the pattern
        r, c = zero
        assert c * polish.N + r in polish.keys

    # minimum-norm start point: identity Hessian
    start = _KKTPattern(n, A)
    eye = scipy.sparse.eye_array(n, format="csr")
    assert_same_values(start, start.fill(reg=1.0), block_kkt(eye, A, 0.0))
    assert_same_values(start, start.fill(reg=1.0, delta=1e-12), block_kkt(eye, A, 1e-12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), p=st.integers(0, 5),
       m=st.integers(0, 14), g_rows=st.sampled_from(["random", "dense", "single"]),
       mask=st.sampled_from(["all", "none", "random"]))
@example(seed=7, n=4, p=0, m=6, g_rows="random", mask="random")
def test_restricted_pattern_equals_pattern_of_kept_rows(seed, n, p, m, g_rows, mask):
    """The polish's pattern over [A; G] restricted to some rows of G is the
    pattern built from [A; G[active]]: the same keys, rows, column starts and
    diagonal, and bit for bit the same Hessian values and matrices, with
    empty A, stored zeros and Hessian positions listed more than once."""
    A, G, _, _ = refill_case(seed, n, p, m, g_rows)
    rng = np.random.default_rng([seed, 1])
    size = int(rng.integers(0, 3 * n + 1))
    rows, cols = rng.integers(0, n, size), rng.integers(0, n, size)
    rows, cols = np.append(rows, rows[:1]), np.append(cols, cols[:1])    # the first again
    values = rng.standard_normal(rows.size) * 10.0 ** rng.uniform(-3, 3, rows.size)
    active = {"all": np.ones(m, dtype=bool), "none": np.zeros(m, dtype=bool),
              "random": rng.random(m) < 0.5}[mask]

    full = _KKTPattern(n, scipy.sparse.vstack([A, G], format="csr"), hess_rows=rows, hess_cols=cols)
    got = full.restrict(np.concatenate([np.ones(p, dtype=bool), active]))
    want = _KKTPattern(n, scipy.sparse.vstack([A, G[active]], format="csr"),
                       hess_rows=rows, hess_cols=cols)
    for name in ("keys", "rows", "indptr", "diag"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    (hv, scale), (hv_want, scale_want) = got.hessian(values), want.hessian(values)
    assert hv.tobytes() == hv_want.tobytes() and scale == scale_want
    for reg, delta in ((0.0, 0.0), (1e-14 * scale, 1e-13)):
        assert got.fill(hv, reg=reg, delta=delta).tobytes() == want.fill(hv_want, reg=reg, delta=delta).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), p=st.integers(0, 5),
       m=st.integers(0, 14), g_rows=st.sampled_from(["random", "dense", "single"]),
       mask=st.sampled_from(["all", "none", "random"]))
def test_solve_pattern_serves_every_matrix_of_a_solve(seed, n, p, m, g_rows, mask):
    """The one pattern a solve builds, over [A; G] with G's barrier pairs.
    Restricted to A's rows it is the interior-point pattern built from A and
    G: the same keys, rows, column starts, diagonal and pair positions, and
    bit for bit the same Newton values; and it gives the start point's
    matrices.  Restricted to A and some rows of G it gives the matrices of
    those rows without barrier terms, as the polish factors them."""
    A, G, H, w = refill_case(seed, n, p, m, g_rows)
    rows, cols, values, _, H = declared_hessian(seed, n, H)
    full = _KKTPattern(n, scipy.sparse.vstack([A, G], format="csr"), G, rows, cols)

    got, want = full.restrict(np.arange(p + m) < p), _KKTPattern(n, A, G, rows, cols)
    for name in ("keys", "rows", "indptr", "diag", "pair_pos"):
        got_v, want_v = getattr(got, name), getattr(want, name)
        assert (got_v is None and want_v is None) or np.array_equal(got_v, want_v), name
    (hv, scale), (hv_want, scale_want) = got.hessian(values), want.hessian(values)
    assert hv.tobytes() == hv_want.tobytes() and scale == scale_want
    data = got.fill(hv, w, reg=1e-11 * scale, delta=1e-12)
    assert data.tobytes() == want.fill(hv_want, w, reg=1e-11 * scale, delta=1e-12).tobytes()

    eye = scipy.sparse.eye_array(n, format="csr")
    for delta in (0.0, 1e-12):
        assert_same_values(got, got.fill(reg=1.0, delta=delta), block_kkt(eye, A, delta))

    rng = np.random.default_rng([seed, 2])
    active = {"all": np.ones(m, dtype=bool), "none": np.zeros(m, dtype=bool),
              "random": rng.random(m) < 0.5}[mask]
    got = full.restrict(np.concatenate([np.ones(p, dtype=bool), active]))
    B = scipy.sparse.vstack([A, G[active]], format="csr")
    Hc = scipy.sparse.csr_array(H)
    hv, scale = got.hessian(values)
    assert scale == max(1.0, float(scipy.sparse.linalg.norm(Hc, np.inf)))
    for reg, delta in ((0.0, 0.0), (1e-14 * scale, 1e-13)):
        assert_same_values(got, got.fill(hv, reg=reg, delta=delta),
                           block_kkt(Hc + reg * scipy.sparse.eye_array(n), B, delta))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), p=st.integers(0, 5),
       m=st.integers(0, 14), g_rows=st.sampled_from(["random", "dense", "single"]),
       mask=st.sampled_from(["all", "none", "random"]))
def test_operator_product_equals_matrix_product(seed, n, p, m, g_rows, mask):
    """The refinement's products use the pattern's one CSC array with the
    values swapped in, exact zeros kept; each equals the product with the
    block-assembled matrix bit for bit.  Covered: the interior-point matrix
    and its 1e-6 retry, and the start point's and the polish's matrices,
    whose top-left blocks hold exact zeros (G's barrier pairs without
    weights, a declared zero, zero weights), on patterns restricted from the
    solve's one pattern; the vectors hold zeros of both signs."""
    A, G, H, w = refill_case(seed, n, p, m, g_rows)
    rows, cols, values, _, H = declared_hessian(seed, n, H)
    K_ipm, K_retry, _ = block_ipm_kkt(H, A, G, w)
    full = _KKTPattern(n, scipy.sparse.vstack([A, G], format="csr"), G, rows, cols)
    rng = np.random.default_rng([seed, 3])
    ipm = full.restrict(np.arange(p + m) < p)
    hv, scale = ipm.hessian(values)
    data = ipm.fill(hv, w, reg=1e-11 * scale, delta=1e-12)
    retry = data.copy()
    retry[ipm.diag[:n]] += 1e-6
    active = {"all": np.ones(m, dtype=bool), "none": np.zeros(m, dtype=bool),
              "random": rng.random(m) < 0.5}[mask]
    polish = full.restrict(np.concatenate([np.ones(p, dtype=bool), active]))
    hv, scale = polish.hessian(values)
    B = scipy.sparse.vstack([A, G[active]], format="csr")
    Hc, eye = scipy.sparse.csr_array(H), scipy.sparse.eye_array(n, format="csr")
    cases = [(ipm, data, K_ipm), (ipm, retry, K_retry), (ipm, ipm.fill(reg=1.0), block_kkt(eye, A, 0.0)),
             (ipm, ipm.fill(reg=1.0, delta=1e-12), block_kkt(eye, A, 1e-12)),
             (polish, polish.fill(hv), block_kkt(Hc, B, 0.0)),
             (polish, polish.fill(hv, reg=1e-14 * scale, delta=1e-13),
              block_kkt(Hc + 1e-14 * scale * eye, B, 1e-13))]
    for pattern, entries, want in cases:
        v = rng.standard_normal(pattern.N) * 10.0 ** rng.uniform(-3, 3, pattern.N)
        v[rng.random(pattern.N) < 0.2] = 0.0
        v[rng.random(pattern.N) < 0.1] = -0.0
        got = pattern.operator(entries)(v)
        assert got.tobytes() == (want @ v).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 8), cols=st.integers(0, 8),
       fmt=st.sampled_from(["csr", "csc"]))
def test_matvec_equals_scipy_product(seed, rows, cols, fmt):
    """``_matvec`` calls the product kernels of scipy's private
    ``_sparsetools``; it equals ``M @ v`` byte for byte, with M's values and
    with others swapped in, so a scipy upgrade that changes those kernels
    fails here.  The product with the transpose of a CSR array, a CSC array
    on the same arrays, equals the product with that transpose in CSR form,
    as the solver's A^T and G^T products take it.  Covered: CSR and CSC
    arrays with empty rows and columns, stored zeros of both signs,
    unsorted and duplicate indices, and vectors holding zeros of both signs,
    infinities and NaN.  A vector of another length is refused."""
    rng = np.random.default_rng(seed)
    major, minor = (rows, cols) if fmt == "csr" else (cols, rows)
    counts = rng.integers(0, 2 * minor + 1, major) * (rng.random(major) < 0.7)    # some empty
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = rng.integers(0, max(minor, 1), indptr[-1]).astype(np.int32)

    def values():
        data = rng.standard_normal(indptr[-1]) * 10.0 ** rng.uniform(-3, 3, indptr[-1])
        kind = rng.random(indptr[-1])
        data[kind < 0.2] = 0.0
        data[kind > 0.9] = -0.0
        return data

    container = scipy.sparse.csr_array if fmt == "csr" else scipy.sparse.csc_array
    M, swapped = (container((data, indices, indptr), shape=(rows, cols)) for data in (values(), values()))

    def vector(size):
        v = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
        v[rng.random(size) < 0.2] = 0.0
        v[rng.random(size) < 0.1] = -0.0
        if rng.random() < 0.5:
            v[rng.random(size) < 0.2] = rng.choice([np.inf, -np.inf, np.nan])
        return v

    v = vector(cols)
    assert _matvec(M)(v).tobytes() == (M @ v).tobytes()
    assert _matvec(M, swapped.data)(v).tobytes() == (swapped @ v).tobytes()
    if fmt == "csr":
        w = vector(rows)
        assert _matvec(M.T)(w).tobytes() == (M.T.tocsr() @ w).tobytes()
    with pytest.raises(ValueError, match=f"{cols} columns"):     # the kernel would read past v
        _matvec(M)(np.zeros(cols + 1))


# ---------------------------------------------------------------------------
# the factor-and-solve routine
# ---------------------------------------------------------------------------


# an A with a repeated row, so the unregularised [[0, A^T], [A, 0]] is exactly singular
REPEATED_ROW = scipy.sparse.csr_array(np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]]))


def kkt_case():
    """The pattern of [[0, A^T], [A, 0]] for ``REPEATED_ROW``."""
    return _KKTPattern(3, REPEATED_ROW)


def test_kkt_solver_refuses_singular_matrix():
    pattern = kkt_case()
    assert _kkt_solver(pattern, pattern.fill()) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["b_pos", "diag"])
def test_kkt_solver_refuses_matrix_with_entry_not_finite(bad, where):
    """The band LU factors NaN and infinite entries alike, and the probe
    solve with an infinite entry's factors is finite, so the entries are
    checked before factoring."""
    pattern = kkt_case()
    data = pattern.fill(reg=1.0, delta=1e-12)
    data[getattr(pattern, where)[0]] = bad
    assert _kkt_solver(pattern, data) is None


def test_kkt_solver_refuses_factors_whose_solves_overflow():
    """Pivots of 1e-310 are neither zero nor infinite, but every solve with
    them overflows; the first solve, of the caller's right-hand side,
    refuses them."""
    pattern = _KKTPattern(2, scipy.sparse.csr_array((0, 2)))
    rhs = np.ones(2)
    assert _kkt_solver(pattern, pattern.fill(reg=1e-310), rhs) is None
    sol, solve = _kkt_solver(pattern, pattern.fill(reg=1e-300), rhs)
    assert np.array_equal(sol, np.full(2, 1e300)) and np.array_equal(solve(rhs), sol)


def test_kkt_solver_solves_regularised_matrix():
    pattern = kkt_case()
    data = pattern.fill(reg=1.0, delta=1e-12)
    solve = _kkt_solver(pattern, data)
    assert solve is not None
    rhs = np.arange(1.0, 6.0)
    K = block_kkt(scipy.sparse.eye_array(3, format="csr"), REPEATED_ROW, 1e-12)
    assert_same_values(pattern, data, K)
    np.testing.assert_allclose(K @ solve(rhs), rhs, atol=1e-9)
