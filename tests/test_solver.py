"""Interior-point solver tests: analytic KKT points, vertex enumeration for
LPs, dual conventions, and failure-mode reporting."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from qp import quadratic_program, verify_kkt
from scipy.linalg import lapack

from storage_pricer import solver
from storage_pricer.baseline import deterministic_variant
from storage_pricer.dispatch import _extract_solution, build_dispatch, solve_dispatch
from storage_pricer.errors import DomainError
from storage_pricer.solver import (
    INFEASIBLE,
    ITER_LIMIT,
    OPTIMAL,
    ConvexProgram,
    RowBlock,
    assemble_rows,
    solve_convex,
)
from storage_pricer.scenarios import sample_net_load, synth_test_system


def solve_qp(Q, c, **kw):
    return solve_convex(quadratic_program(Q, c, **kw))


# ---------------------------------------------------------------------------
# analytic KKT points
# ---------------------------------------------------------------------------


def test_min_x_squared_above_one():
    # min x^2 s.t. x >= 1  ->  x = 1, active dual 2 (from 2x - z = 0).
    res = solve_qp(np.array([[2.0]]), np.array([0.0]), G=np.array([[-1.0]]), h=np.array([-1.0]))
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(1.0, abs=1e-7)
    assert res.ineq_duals[0] == pytest.approx(2.0, abs=1e-6)
    assert res.max_residual <= 1e-8


def test_equality_dual_sign_convention():
    # min (x-1)^2 s.t. x = 3 (and an inactive x <= 10): grad 2(x-1) = 4, so
    # y = -4 under L = f + y (x - 3); the optimal-value derivative
    # d f*/d rhs = -y = +4.
    res = solve_qp(np.array([[2.0]]), np.array([-2.0]), A=np.array([[1.0]]), b=np.array([3.0]),
                   G=[[1.0]], h=[10.0])
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)
    assert res.eq_duals[0] == pytest.approx(-4.0, abs=1e-7)


def test_interior_optimum_no_duals():
    res = solve_qp(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([-2.0, -4.0]),
                   G=np.array([[1.0, 0.0], [0.0, 1.0]]), h=np.array([10.0, 10.0]))
    assert res.status == OPTIMAL
    assert res.x == pytest.approx(np.array([1.0, 2.0]), abs=1e-7)
    assert np.all(res.ineq_duals <= 1e-6)


# ---------------------------------------------------------------------------
# LP against vertex enumeration
# ---------------------------------------------------------------------------


def lp_vertices(G, h):
    """All basic feasible points of {x : Gx <= h} in 2-D."""
    verts = []
    for (i, j) in itertools.combinations(range(G.shape[0]), 2):
        M = G[[i, j]]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, h[[i, j]])
        if np.all(G @ v <= h + 1e-9):
            verts.append(v)
    return verts


def test_lp_matches_best_vertex():
    # Triangle with vertices (0,0), (4,0), (0,3).
    G = np.array([[-1.0, 0.0], [0.0, -1.0], [3.0, 4.0]])
    h = np.array([0.0, 0.0, 12.0])
    c = np.array([-1.0, -2.0])
    res = solve_qp(np.zeros((2, 2)), c, G=G, h=h)
    assert res.status == OPTIMAL
    verts = lp_vertices(G, h)
    best = min(c @ v for v in verts)
    assert res.objective == pytest.approx(best, abs=1e-6)


def test_lp_duals_price_the_binding_rows():
    G = np.array([[-1.0, 0.0], [0.0, -1.0], [3.0, 4.0]])
    h = np.array([0.0, 0.0, 12.0])
    c = np.array([-1.0, -2.0])
    res = solve_qp(np.zeros((2, 2)), c, G=G, h=h)
    # stationarity: c + G^T z = 0 with z >= 0
    assert np.linalg.norm(c + G.T @ res.ineq_duals, np.inf) <= 1e-7


# ---------------------------------------------------------------------------
# verify_kkt
# ---------------------------------------------------------------------------


def test_verify_kkt_agrees_with_solver():
    res = solve_qp(np.array([[2.0]]), np.array([0.0]), G=np.array([[-1.0]]), h=np.array([-1.0]))
    prog = quadratic_program(np.array([[2.0]]), np.array([0.0]), G=np.array([[-1.0]]), h=np.array([-1.0]))
    rep = verify_kkt(prog, res)
    assert rep["stationarity"] <= 10 * max(res.residuals["stationarity"], 1e-9)


def test_verify_kkt_perturbed_dual_shows_in_row():
    prog = quadratic_program(np.array([[2.0]]), np.array([0.0]), G=np.array([[-1.0]]), h=np.array([-1.0]))
    res = solve_convex(prog)
    res.ineq_duals = res.ineq_duals + 1.0
    rep = verify_kkt(prog, res)
    # the G coefficient is -1, so the stationarity row moves by ~1
    assert rep["stationarity"] == pytest.approx(1.0, abs=1e-5)


def test_verify_kkt_zero_duals_interior_optimum():
    prog = quadratic_program(np.array([[2.0]]), np.array([-4.0]), G=np.array([[1.0]]), h=np.array([100.0]))
    res = solve_convex(prog)
    res.ineq_duals = np.zeros(1)
    rep = verify_kkt(prog, res)
    assert rep["stationarity"] <= 1e-6


def test_verify_kkt_dimension_mismatch():
    prog = quadratic_program(np.eye(2), np.zeros(2), G=[[1.0, 0.0]], h=[10.0])
    res = solve_convex(prog)
    res.x = np.zeros(3)
    with pytest.raises(DomainError):
        verify_kkt(prog, res)


# ---------------------------------------------------------------------------
# statuses
# ---------------------------------------------------------------------------


def test_infeasible_detected():
    # x <= 0 and x >= 1
    res = solve_qp(np.array([[2.0]]), np.array([0.0]),
                   G=np.array([[1.0], [-1.0]]), h=np.array([0.0, -1.0]))
    assert res.status == INFEASIBLE


def test_inconsistent_equalities_detected():
    res = solve_qp(np.array([[2.0]]), np.array([0.0]),
                   A=np.array([[1.0], [1.0]]), b=np.array([0.0, 1.0]), G=[[1.0]], h=[10.0])
    assert res.status == INFEASIBLE


def test_iteration_cap_returns_best_iterate(monkeypatch):
    monkeypatch.setattr(solver, "ITER_CAP", 2)
    prog = quadratic_program(np.array([[2.0]]), np.array([0.0]), G=np.array([[-1.0]]), h=np.array([-1.0]))
    res = solve_convex(prog)
    assert res.iterations <= 2
    assert res.status in (ITER_LIMIT, OPTIMAL)
    assert np.isfinite(res.max_residual)


def zero_pivot_solve(lu, kl, ku, b, ipiv, **kwargs):
    """Stand-in for ``dgbtrs`` with band factors of an exactly zero pivot:
    every solve with them is NaN."""
    return np.full_like(b, np.nan), 0


def count_band_factorisations(monkeypatch, info=None):
    """Count the calls of ``dgbtrf``; with ``info``, each reports that
    status instead of factoring (``info`` = 1: an exactly zero pivot)."""
    calls = []
    dgbtrf = lapack.dgbtrf

    def counting(ab, kl, ku, **kwargs):
        calls.append(ab.shape)
        return dgbtrf(ab, kl, ku, **kwargs) if info is None else (ab, np.zeros(ab.shape[1], np.int32), info)

    monkeypatch.setattr(lapack, "dgbtrf", counting)
    return calls


def test_singular_kkt_ends_with_status(monkeypatch):
    """Factors with a zero pivot in both the factorisation and its
    regularised retry end the solve with a status instead of a NaN step."""
    calls = count_band_factorisations(monkeypatch)
    monkeypatch.setattr(lapack, "dgbtrs", zero_pivot_solve)
    prog = quadratic_program(np.eye(2), np.ones(2), G=-np.eye(2), h=np.zeros(2))
    res = solve_convex(prog)
    assert res.status in (ITER_LIMIT, INFEASIBLE)
    assert len(calls) >= 2


def test_exactly_singular_kkt_ends_with_status(monkeypatch):
    """dgbtrf reports an exactly zero pivot, in the start-point solve as
    well as in the Newton system; either way the solve ends with a status."""
    calls = count_band_factorisations(monkeypatch, info=1)
    ineq = quadratic_program(np.eye(2), np.ones(2), G=-np.eye(2), h=np.zeros(2))
    assert solve_convex(ineq).status in (ITER_LIMIT, INFEASIBLE)
    assert len(calls) >= 2
    eq = quadratic_program(np.eye(2), np.ones(2), A=[[1.0, 1.0]], b=[1.0], G=[[1.0, 0.0]], h=[10.0])
    assert solve_convex(eq).status == ITER_LIMIT


def test_exactly_singular_wide_kkt_ends_with_status(monkeypatch):
    """A row over all 20 variables makes the start point's KKT pattern an
    arrow whose band holds more than the pattern, bw^2 > nnz = 61 (21
    diagonal entries and the row twice); the band LU factors it all the
    same, and an exactly zero pivot there ends the solve with a status."""
    calls = count_band_factorisations(monkeypatch, info=1)
    prog = quadratic_program(np.eye(20), np.ones(20), A=np.ones((1, 20)), b=[1.0],
                             G=-np.eye(20), h=np.zeros(20))
    assert solve_convex(prog).status == ITER_LIMIT
    [(rows, N)] = calls
    bw = (rows - 1) // 3
    assert N == 21 and bw * bw > 61


# ---------------------------------------------------------------------------
# the diagnosis of a capped solve
# ---------------------------------------------------------------------------


def record_linprog(monkeypatch, status=None):
    """Record the status of each HiGHS call; with ``status``, each call
    returns that status, and no solution, instead of solving."""
    statuses = []
    linprog = scipy.optimize.linprog

    def recording(*args, **kwargs):
        res = scipy.optimize.OptimizeResult(status=status, x=None) if status is not None \
            else linprog(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    return statuses


INFEASIBLE_ROWS = {
    "inequalities-only": dict(G=[[1.0], [-1.0]], h=[0.0, -1.0]),           # x <= 0, x >= 1
    "both-kinds": dict(A=[[1.0, 1.0]], b=[1.0], G=np.eye(2), h=np.zeros(2)),  # x1 + x2 = 1, x <= 0
}


def infeasible_program(kind):
    rows = INFEASIBLE_ROWS[kind]
    n = np.shape(rows["G"])[1]
    return quadratic_program(np.eye(n), np.zeros(n), **rows)


@pytest.mark.parametrize("kind", INFEASIBLE_ROWS)
def test_highs_optimum_diagnoses_infeasible_program(monkeypatch, kind):
    """The interior-point method does not certify an infeasible program;
    HiGHS solves the phase-1 LP to its optimum, t* = 0.5 for both programs
    here, and a t* > 0 is the verdict."""
    statuses = record_linprog(monkeypatch)
    prog = infeasible_program(kind)
    assert solve_convex(prog).status == INFEASIBLE
    assert statuses == [0]
    assert solver._phase1_min_violation(prog) == pytest.approx(0.5)


@pytest.mark.parametrize("status", [1, 3, 4])
@pytest.mark.parametrize("kind", INFEASIBLE_ROWS)
def test_no_highs_verdict_leaves_iter_limit(monkeypatch, kind, status):
    """A HiGHS status other than optimal or infeasible (1: a limit reached,
    3: unbounded, 4: numerical trouble) is no verdict: the result stays
    ``iter_limit``, even for a program that is infeasible."""
    statuses = record_linprog(monkeypatch, status)
    assert solve_convex(infeasible_program(kind)).status == ITER_LIMIT
    assert statuses == [status]


def test_highs_infeasible_status_is_the_infeasible_verdict(monkeypatch):
    """A start-point factorisation that fails leaves inconsistent equalities
    undiagnosed by the interior-point method; HiGHS finds the phase-1 LP
    infeasible (status 2), and the program is reported infeasible."""
    count_band_factorisations(monkeypatch, info=1)
    statuses = record_linprog(monkeypatch)
    prog = quadratic_program(np.eye(1), np.zeros(1), A=[[1.0], [1.0]], b=[0.0, 1.0], G=[[-1.0]], h=[0.0])
    assert solve_convex(prog).status == INFEASIBLE
    assert statuses == [2]


@pytest.mark.parametrize("degree, horizon, terminal, e0", [
    (2, 12, "periodic", 0.0), (3, 6, "free", 0.999), (3, 6, "periodic", 0.0), (3, 12, "periodic", 0.0),
    (3, 24, "periodic", 0.0), (3, 24, "periodic", 1.0), (3, 168, "periodic", 0.0), (3, 168, "periodic", 1.0),
])
def test_feasible_soc_extremes_are_not_diagnosed_infeasible(degree, horizon, terminal, e0):
    """Dispatches at the SoC extremes that are feasible but whose
    interior-point solve ends at the cap, so the diagnosis runs; it must not
    call them infeasible, whatever status they end with."""
    system = synth_test_system(horizon=horizon, fit_degree=degree, terminal=terminal, e_init_ratio=e0)
    assert solve_dispatch(system).status != INFEASIBLE


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def random_feasible_qp(rng, n=6, m=8, p=2):
    L = rng.normal(size=(n, n))
    Q = L @ L.T + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    x0 = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    h = G @ x0 + rng.uniform(0.1, 2.0, size=m)
    A = rng.normal(size=(p, n))
    b = A @ x0
    return quadratic_program(Q, c, A=A, b=b, G=G, h=h)


def test_random_qp_batch_kkt_certificates():
    rng = np.random.default_rng(17)
    for _ in range(25):
        prog = random_feasible_qp(rng)
        res = solve_convex(prog)
        assert res.status == OPTIMAL
        assert res.max_residual <= 1e-8
        assert np.all(res.ineq_duals >= -1e-8)
        slack = prog.h - prog.G @ res.x
        assert np.max(np.abs(res.ineq_duals * slack)) <= 1e-7


def test_strong_duality_gap_quadratic():
    rng = np.random.default_rng(23)
    for _ in range(10):
        prog = random_feasible_qp(rng)
        res = solve_convex(prog)
        # dual objective at (y, z): f(x) + y'(Ax-b) + z'(Gx-h) evaluated at
        # the primal-dual point equals primal minus the complementarity mass
        lag = res.objective + res.eq_duals @ (prog.A @ res.x - prog.b) \
            + res.ineq_duals @ (prog.G @ res.x - prog.h)
        assert abs(res.objective - lag) <= 1e-6 * (1 + abs(res.objective))


def test_reproducibility_bitwise():
    rng = np.random.default_rng(31)
    prog = random_feasible_qp(rng)
    r1 = solve_convex(prog)
    r2 = solve_convex(prog)
    assert np.all(np.abs(r1.x - r2.x) <= 1e-9)
    assert np.all(np.abs(r1.ineq_duals - r2.ineq_duals) <= 1e-9)


def test_degenerate_active_set_flagged():
    # min x^2 s.t. x >= 0: optimum has both slack and dual at zero.
    res = solve_qp(np.array([[2.0]]), np.array([0.0]), G=np.array([[-1.0]]), h=np.array([0.0]))
    assert res.status == OPTIMAL


# ---------------------------------------------------------------------------
# non-quadratic (quartic) objective path
# ---------------------------------------------------------------------------


def quartic_program():
    """min (x-2)^4 + x^2 s.t. x <= 1; the bound binds at the optimum."""
    def value(x):
        return float((x[0] - 2) ** 4 + x[0] ** 2)

    def grad(x):
        return np.array([4 * (x[0] - 2) ** 3 + 2 * x[0]])

    def hess(x):
        return np.array([12 * (x[0] - 2) ** 2 + 2.0])

    return ConvexProgram(n=1, value=value, grad=grad, hess=hess, hess_rows=[0], hess_cols=[0],
                         G=np.array([[1.0]]), h=np.array([1.0]))


def test_quartic_objective_damped_newton():
    # check against a fine grid search
    res = solve_convex(quartic_program())
    assert res.status == OPTIMAL
    xs = np.linspace(-3, 1, 400001)
    ref = xs[np.argmin((xs - 2) ** 4 + xs**2)]
    assert res.x[0] == pytest.approx(ref, abs=1e-5)
    assert res.max_residual <= 1e-8


def polish_pattern(prog):
    """The solve's pattern over [A; G] that the polish restricts, as
    ``_solve`` builds it."""
    return solver._KKTPattern(prog.n, scipy.sparse.vstack([prog.A, prog.G], format="csr"), prog.G,
                              prog.hess_rows, prog.hess_cols)


@pytest.mark.parametrize("make, active, x0, factorisations", [
    # a QP's Hessian never changes: one factorisation serves all three steps
    (lambda: quadratic_program(np.array([[2.0]]), np.array([0.0]), G=[[-1.0]], h=[-1.0]),
     [True], 3.0, 1),
    # without the bound, x moves every step and so does the quartic's Hessian
    (quartic_program, [False], 0.0, 3),
    # on the bound, the first step lands on x = 1 and the last one reuses
    # the second's factorisation
    (quartic_program, [True], 0.5, 2),
], ids=["qp", "quartic-free", "quartic-on-bound"])
def test_polish_factors_again_only_when_the_hessian_changes(monkeypatch, make, active, x0,
                                                            factorisations):
    prog, x = make(), np.array([x0])
    calls = count_band_factorisations(monkeypatch)
    steps = list(solver._polish_solve(prog, solver._Products.of(prog), polish_pattern(prog), x,
                                      np.array(active), (prog.hess(x), prog.grad(x))))
    assert len(steps) == 3 and None not in steps
    assert len(calls) == factorisations


def count_in_polish(monkeypatch):
    """Count the patterns built in all, and per ``_polish`` call its
    factorisations (band LUs: its patterns are narrow) and the patterns it
    builds; returns the total and the list the per-polish counts go to."""
    built, counts, current = {"patterns": 0}, [], {"factors": 0, "patterns": 0}
    dgbtrf, init, polish = lapack.dgbtrf, solver._KKTPattern.__init__, solver._polish

    def counting_factor(*args, **kwargs):
        current["factors"] += 1
        return dgbtrf(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        current["patterns"] += 1
        built["patterns"] += 1
        init(self, *args, **kwargs)

    def counting_polish(*args, **kwargs):
        current.update(factors=0, patterns=0)
        out = polish(*args, **kwargs)
        counts.append(dict(current))
        return out

    monkeypatch.setattr(lapack, "dgbtrf", counting_factor)
    monkeypatch.setattr(solver._KKTPattern, "__init__", counting_init)
    monkeypatch.setattr(solver, "_polish", counting_polish)
    return built, counts


def test_polish_factors_once_per_search_round(monkeypatch):
    """A cubic T=6 dispatch polishes in r = 2 rounds.  Each search round
    factors once, at the start point, and the round that settles takes two
    more steps of the same Newton run: r + 2 factorisations, not the 3r of
    three full steps per round, whatever r is.  The solve builds one
    pattern, and the polish restricts it without building another."""
    program = build_dispatch(synth_test_system(horizon=6, fit_degree=3)).program
    built, counts = count_in_polish(monkeypatch)
    res = solve_convex(program)
    assert res.status == OPTIMAL and res.polished
    rounds = res.polish_rounds
    assert rounds > 1
    assert counts == [{"factors": rounds + 2, "patterns": 0}]
    assert built == {"patterns": 1}


@pytest.mark.parametrize("scenarios, seed, rounds, polished", [
    (None, None, 2, True),      # one T=24 dispatch
    # two stacks, not polished; the ids keep the outcomes a whole-stack
    # polish had: settled after 6 rounds, and gave up after 8
    (4, 2, 0, False),
    (2, 2, 0, False),
], ids=["dispatch", "stack-polished", "stack-gives-up"])
def test_solve_result_reports_polish_outcome(monkeypatch, scenarios, seed, rounds, polished):
    """The cubic default system (T=24) alone and as stacked price scenarios.
    An accepted polish ends at rounding level, and the solve builds one
    pattern and the polish builds none.  A stack is a program of
    independent copies and is not polished: it returns the interior-point
    iterate, within tolerance, and each copy's lambda is the one that copy
    has solved alone."""
    system = synth_test_system(fit_degree=3)
    if scenarios is None:
        build = build_dispatch(system)
    else:
        draws = np.clip(sample_net_load(system.net_load, scenarios, seed), system.g_min, system.g_max)
        build = build_dispatch(deterministic_variant(system, draws[0]), loads=draws)
        alone = [solve_dispatch(copy).lam for copy in build.systems]
    built, counts = count_in_polish(monkeypatch)
    res = solve_convex(build.program)
    assert res.status == OPTIMAL
    assert (res.polish_rounds, res.polished) == (rounds, polished)
    assert (res.max_residual <= 1e-10) == polished
    assert [count["patterns"] for count in counts] == ([0] if rounds else [])
    assert built == {"patterns": 1}
    if scenarios is not None:
        for copy, lam in enumerate(alone):
            np.testing.assert_allclose(_extract_solution(build, res, copy).lam, lam, rtol=1e-12, atol=0)


def test_solve_result_reports_no_polish_when_none_ran():
    """An infeasible program never gets near optimal, so nothing is polished."""
    res = solve_qp(np.eye(1), np.zeros(1), G=[[1.0], [-1.0]], h=[-1.0, -1.0])
    assert res.status == INFEASIBLE
    assert (res.polish_rounds, res.polished) == (0, False)


def day24_recipe(index):
    """The 24-period system the day24 benchmark pool draws as ``index``
    (master seed 2024), as ``test_sparse_kkt.pool_system`` draws it."""
    rng = np.random.default_rng([2024, index])
    total_cap = float(rng.uniform(8_000, 25_000))
    return synth_test_system(
        n_gens=int(rng.integers(16, 77)), total_cap_mw=total_cap,
        avg_load_mw=float(rng.uniform(0.45, 0.65)) * total_cap,
        renewable_ratio=float(rng.uniform(0.1, 0.5)), storage_ratio=float(rng.uniform(0.1, 0.3)),
        duration_h=float(rng.uniform(2.0, 8.0)), eta=float(rng.uniform(0.85, 0.999)),
        marginal_cost=float(rng.uniform(5.0, 40.0)), e_init_ratio=float(rng.uniform(0.2, 0.8)),
        epsilon=(0.01, 0.05, 0.1)[index % 3], horizon=24, seed=int(rng.integers(0, 10_000)),
        fit_degree=(2, 2, 2, 3, 3)[index % 5], g_min_ratio=float(rng.uniform(0.25, 0.35)))


def price_scenario(horizon, degree, seed, copy):
    """Price scenario ``copy`` of 4 drawn with ``seed``, as one deterministic dispatch."""
    system = synth_test_system(horizon=horizon, fit_degree=degree)
    draws = np.clip(sample_net_load(system.net_load, 4, seed), system.g_min, system.g_max)
    return deterministic_variant(system, draws[copy])


@pytest.mark.parametrize("system", [
    lambda: day24_recipe(85),               # the search gives up after 8 rounds
    lambda: price_scenario(6, 2, 0, 1),     # the polished iterate is found but not better
], ids=["polish-gives-up", "polish-not-better"])
def test_last_program_evaluation_is_at_the_returned_iterate(system):
    """The objective is evaluated last, at the returned x, also when the
    polish's iterates are rejected; a memoized kernel then holds the
    returned point.  Both programs are single dispatches, which are
    connected and so polished."""
    program = build_dispatch(system()).program
    points = []

    def recording(callback):
        return lambda x: points.append(x.copy()) or callback(x)

    res = solve_convex(dataclasses.replace(program, **{
        name: recording(getattr(program, name)) for name in ("value", "grad", "hess")}))
    assert res.status == OPTIMAL and not res.polished and res.polish_rounds
    assert points[-1].tobytes() == res.x.tobytes()
    assert res.objective == program.value(res.x)


# ---------------------------------------------------------------------------
# the program contract: the Hessian's positions are declared once
# ---------------------------------------------------------------------------


def one_variable(hess_rows=(0,), hess_cols=(0,), hess=lambda x: np.array([2.0])):
    return ConvexProgram(n=1, value=lambda x: float(x[0] ** 2), grad=lambda x: 2.0 * x, hess=hess,
                         hess_rows=hess_rows, hess_cols=hess_cols, G=[[-1.0]], h=[-1.0])


@pytest.mark.parametrize("rows, cols, needle", [
    ([0, 0], [0], "differ in length"),
    ([1], [0], r"hess_rows must lie in \[0, 1\)"),
    ([0], [-1], r"hess_cols must lie in \[0, 1\)"),
    ([0.0], [0], "hess_rows must be a 1-d array of integers"),
    ([[0]], [[0]], "hess_rows must be a 1-d array of integers"),
])
def test_program_refuses_bad_hessian_positions(rows, cols, needle):
    with pytest.raises(DomainError, match=needle):
        one_variable(rows, cols)


@pytest.mark.parametrize("rows", [{}, dict(A=[[1.0]], b=[1.0]), dict(G=np.zeros((0, 1)), h=[])],
                         ids=["no-rows", "equalities-only", "empty-inequality-block"])
def test_program_without_inequality_rows_is_refused(rows):
    with pytest.raises(DomainError, match="at least one inequality row"):
        ConvexProgram(n=1, value=lambda x: float(x[0] ** 2), grad=lambda x: 2.0 * x,
                      hess=lambda x: np.array([2.0]), hess_rows=[0], hess_cols=[0], **rows)


def test_program_without_hessian_entries_is_linear():
    prog = ConvexProgram(n=1, value=lambda x: float(x[0]), grad=lambda x: np.ones(1),
                         hess=lambda x: np.zeros(0), hess_rows=[], hess_cols=[],
                         G=[[-1.0]], h=[-1.0])
    res = solve_convex(prog)
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(1.0)


def test_hess_with_wrong_number_of_values_names_expected_count():
    prog = one_variable(hess=lambda x: np.array([2.0, 0.0]))
    with pytest.raises(DomainError, match="declares 1 Hessian entries"):
        solve_convex(prog)


def test_assemble_rows_refuses_a_repeated_kind():
    """A row index keyed by kind would keep only the last block of a kind."""
    def block(t):
        return RowBlock("soc", t, t, [0.0], [([0], [0], 1.0)])

    assemble_rows([block(1)], 1)
    with pytest.raises(DomainError, match="row blocks must have distinct kinds"):
        assemble_rows([block(1), block(2)], 1)
