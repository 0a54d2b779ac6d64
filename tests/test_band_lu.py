"""The band LU against splu, and the phase-1 diagnosis against the dense
interior-point phase-1, differentially.

Random programs whose rows couple only neighbouring periods, as a
dispatch's SoC recursion does, alone and stacked block by block as price
scenarios are: their KKT patterns, restricted for the Newton steps and for a
polish round, are narrow in Cuthill–McKee order.  The band array must hold
every entry of the matrix and nothing else, and the band LU must solve to
the backward error that ``scipy.sparse.linalg.splu`` reaches on the same
matrix.  On the same programs, HiGHS's t* of the phase-1 LP must be the
optimum the dense interior-point phase-1 of ``test_sparse_kkt`` finds.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from qp import quadratic_program
from test_sparse_kkt import DenseProgram, pattern_matrix
from test_sparse_kkt import _phase1_min_violation as dense_phase1

from storage_pricer import solver
from storage_pricer.solver import _kkt_solver, _KKTPattern


def chain(rng, periods, width):
    """(Q, c, A, b, G, h) of a convex QP over ``periods`` blocks of ``width``
    variables.  Q is block diagonal and diagonally dominant; an equality row
    per period after the first ties its last variable to the previous
    period's, as SoC(t+1) = SoC(t) + charge(t); each variable has both
    bounds, and a ramp row per period couples it to the next."""
    n = periods * width
    blocks = []
    for _ in range(periods):
        M = rng.standard_normal((width, width)) * (rng.random((width, width)) < 0.5)
        M = M + M.T
        blocks.append(M + np.diag(np.abs(M).sum(axis=1) + rng.uniform(0.1, 10.0, width)))
    Q = scipy.sparse.block_diag(blocks, format="csr")
    last = np.arange(periods) * width + width - 1
    A = scipy.sparse.lil_array((periods - 1, n))
    for t in range(periods - 1):
        A[t, last[t + 1]], A[t, last[t]], A[t, t * width] = 1.0, -1.0, -rng.uniform(0.5, 1.5)
    ramp = scipy.sparse.lil_array((periods - 1, n))
    for t in range(periods - 1):
        ramp[t, t * width], ramp[t, (t + 1) * width] = -1.0, 1.0
    eye = scipy.sparse.eye_array(n)
    G = scipy.sparse.vstack([eye, -eye, ramp], format="csr")
    x0 = rng.standard_normal(n)
    A = A.tocsr()
    return Q, rng.standard_normal(n), A, A @ x0, G, G @ x0 + rng.uniform(-1.0, 2.0, G.shape[0])


def stacked(seed, periods, width, copies):
    """``copies`` independent chains, stacked block-diagonally."""
    rng = np.random.default_rng(seed)
    parts = [chain(rng, periods, width) for _ in range(copies)]
    Q, c, A, b, G, h = zip(*parts)

    def diag(blocks):
        return scipy.sparse.block_diag(blocks, format="csr")

    return quadratic_program(diag(Q), np.concatenate(c), A=diag(A), b=np.concatenate(b),
                             G=diag(G), h=np.concatenate(h))


def from_band(pattern, ab):
    """The dense matrix the band array ``ab`` holds, in the pattern's order."""
    order, bw, _ = pattern.band
    N = pattern.N
    dense = np.zeros((N, N))
    k, l = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    inside = np.abs(k - l) <= bw
    dense[order[k[inside]], order[l[inside]]] = ab[2 * bw + k[inside] - l[inside], l[inside]]
    return dense


def backward_error(K, sol, rhs):
    return np.max(np.abs(K @ sol - rhs)) / (scipy.sparse.linalg.norm(K, np.inf) * np.max(np.abs(sol))
                                            + np.max(np.abs(rhs)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), periods=st.integers(10, 40), width=st.integers(1, 4),
       copies=st.integers(1, 4))
def test_band_lu_matches_splu_on_narrow_patterns(seed, periods, width, copies):
    """The interior-point pattern and a polish round's, of a chain program
    and of its stacked copies: narrow, bw^2 <= nnz, in a band array that
    reproduces the matrix entry for entry, and solved by the band LU to the
    backward error splu reaches on the same matrix."""
    prog = stacked(seed, periods, width, copies)
    n, p, m = prog.n, prog.A.shape[0], prog.G.shape[0]
    rng = np.random.default_rng([seed, 1])
    full = _KKTPattern(n, scipy.sparse.vstack([prog.A, prog.G], format="csr"), prog.G,
                       prog.hess_rows, prog.hess_cols)
    newton = full.restrict(np.arange(p + m) < p)
    polish = full.restrict(np.concatenate([np.ones(p, dtype=bool), rng.random(m) < 0.3]))
    hv, scale = newton.hessian(prog.hess(None))
    w = 10.0 ** rng.uniform(-4, 4, m)
    cases = [(newton, newton.fill(hv, w, reg=1e-11 * scale, delta=1e-12)),
             (polish, polish.fill(polish.hessian(prog.hess(None))[0], reg=1e-14 * scale, delta=1e-13))]
    for pattern, data in cases:
        _, bw, _ = pattern.band
        assert bw * bw <= pattern.keys.size
        K = pattern_matrix(pattern, data)
        ab = pattern.band_array(data)
        assert ab.shape == (3 * bw + 1, pattern.N) and ab.flags.f_contiguous
        assert np.array_equal(from_band(pattern, ab), K.toarray())
        # nothing outside the band's stored rows, nothing counted twice
        assert not ab[:bw].any()
        assert np.count_nonzero(ab) == np.count_nonzero(data)

        rhs = rng.standard_normal(pattern.N)
        solve = _kkt_solver(pattern, data)
        assert solve is not None
        errors = [backward_error(K, solve(rhs), rhs),
                  backward_error(K, scipy.sparse.linalg.splu(K).solve(rhs), rhs)]
        assert max(errors) <= 1e-14, errors


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), periods=st.integers(12, 30), width=st.integers(1, 3),
       copies=st.integers(1, 2))
def test_phase1_returns_the_dense_oracles_optimum(seed, periods, width, copies):
    """HiGHS's t* of the phase-1 LP, on chain programs alone and stacked, is
    the optimum the dense interior-point phase-1 reaches."""
    prog = stacked(seed, periods, width, copies)
    t_star = solver._phase1_min_violation(prog)
    want = dense_phase1(DenseProgram(prog))
    assert abs(t_star - want) <= 1e-6 * (1.0 + abs(want))
