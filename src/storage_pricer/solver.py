"""Sparse primal-dual interior-point solver with certified KKT residuals.

Solves   min f(x)  s.t.  A x = b,  G x <= h,  with at least one row in G,
for smooth convex f supplied as (value, gradient, Hessian) callbacks.

Duals follow the fixed Lagrangian convention

    L(x, y, z) = f(x) + y^T (A x - b) + z^T (G x - h),   z >= 0,

so at an optimum  grad f + A^T y + G^T z = 0.  Under this convention the
marginal change of the optimal value per unit increase of an equality rhs
is -y.  Inequality duals are reported nonnegative.

The algorithm is an infeasible-start Mehrotra predictor-corrector on the
perturbed KKT system.  Every step is tried in full and halved only while
it leaves the interior or grows the residual merit more than tenfold (the
step tracks the central path rather than descending the residual norm).
A final active-set polish re-solves the equality-constrained KKT system
and pushes residuals toward machine precision.  Its search for the active
set decides each round from one Newton step, and only the round that
settles takes two more; it factors again only when the active set or the
Hessian's values change, so a quadratic objective is factored once per
round.  Only a connected program is polished: one whose columns form a
single block of the graph of [A; G] and the Hessian's entries.  The
polished iterate is accepted only as a whole, so a program of independent
blocks, such as stacked dispatch copies, would need every block to settle
in the same rounds; on measured stacks none ever did.

Everything is sparse.  The constraint matrices are CSR arrays, and each
Newton system is the statically regularised (quasi-definite) KKT matrix,
factored and solved with iterative refinement by one routine
(``_kkt_solver``).  A program declares the positions of its Hessian's
entries once, so each solve builds one KKT pattern (``_KKTPattern``) over
every row, restricted without a sort for the start point, each Newton step
and each polish round; each step refills just the values, equal bit for bit
to assembling the matrix from sparse products and sums.  ``_kkt_solver``
takes the first right-hand side with the values, and the finiteness of
that first solution is what checks the factors; the iterative refinement's
products use the pattern's own CSC arrays (``_KKTPattern.operator``) with
the values swapped in, explicit zeros and all.

A Newton step should cost its arithmetic, not its calls.  Every sparse
product of a solve, with A, G, A^T, G^T and the patterns' CSC arrays, goes
through one routine (``_kernel_product``, which ``_matvec`` binds to a
sparse array's arrays) bound to the arrays once: it calls the kernel that
scipy's ``@`` calls, so the products are the same bytes, without the
dispatch that takes longer than a product at T = 24.  The patterns' graph
kernels are called the same way (``_KKTPattern.blocks`` and ``band``).  Each
iteration's bookkeeping reads one vector, the iterate and its residuals
concatenated: one finiteness test and one sup-norm (``_measure``).

Multi-period dispatches couple periods only through the SoC recursion, so
in the Cuthill–McKee order of its own graph each pattern that is factored
is a band of half-width 5 to 30, whatever the horizon.  Every pattern is
factored by LAPACK's band LU (``dgbtrf``, solved by ``dgbtrs``), and the
cost grows linearly with the horizon.  A solve that hits the iteration cap
is diagnosed by HiGHS (``scipy.optimize.linprog``), so no auxiliary program
of the solver's own, with a dense column, is factored.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy import optimize
from scipy.linalg import lapack
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph._reordering import _reverse_cuthill_mckee
from scipy.sparse.csgraph._traversal import _connected_components_undirected

from .errors import DomainError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITER_LIMIT = "iter_limit"


def _csr(M):
    """M (dense, nested lists or any scipy.sparse format) as a float CSR array."""
    return sp.csr_array(M if sp.issparse(M) else np.atleast_2d(np.asarray(M, dtype=float)),
                        dtype=float)


class RowBlock(NamedTuple):
    """Rows of one kind: per row a ``period``, an order ``key`` and the
    ``rhs`` (``period`` and ``key`` may be one value for every row), and the
    entries in COO form as ``terms``, (row within the block, column, value)
    triples of arrays broadcast together, so one value may serve a term."""

    kind: str
    period: np.ndarray
    key: np.ndarray
    rhs: np.ndarray
    terms: list


def assemble_rows(blocks, n):
    """Stack row blocks into (CSR matrix with n columns, rhs, row index).

    Rows are ordered by key; rows with equal keys keep the order of the
    blocks and, within a block, their own.  There is one block per kind, and
    the row index maps each kind to (periods, positions): its rows' periods
    and their positions in the matrix, both in the block's row order.
    Every entry is kept, explicit zeros included, and a row may have none.
    """
    if len({blk.kind for blk in blocks}) != len(blocks):
        raise DomainError("row blocks must have distinct kinds")
    sizes = [len(blk.rhs) for blk in blocks]
    starts = np.cumsum([0] + sizes[:-1])
    keys = np.concatenate([np.broadcast_to(blk.key, size) for blk, size in zip(blocks, sizes)])
    order = np.argsort(keys, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*(
        np.broadcast_arrays(position[start + np.asarray(row, dtype=np.intp)],
                            np.asarray(col, dtype=np.intp), np.asarray(val, dtype=float))
        for blk, start in zip(blocks, starts) for row, col, val in blk.terms)))
    matrix = sp.csr_array((vals, (rows, cols)), shape=(order.size, n))
    rhs = np.concatenate([np.asarray(blk.rhs, dtype=float) for blk in blocks])[order]
    index = {blk.kind: (np.array(np.broadcast_to(blk.period, size)), position[start:start + size])
             for blk, start, size in zip(blocks, starts, sizes)}
    return matrix, rhs, index


@dataclass
class ConvexProgram:
    """Smooth convex objective plus sparse linear constraints.

    The Hessian's structure is data: its entries sit at the positions
    (``hess_rows[i]``, ``hess_cols[i]``), fixed for the program, and
    ``hess(x)`` returns their values at x in that order (an entry listed
    twice is summed).  Whether the objective is quadratic is not declared:
    the solver sees it from Hessian values that do not change.  ``A`` and
    ``G`` are stored as CSR arrays; dense input is converted once here.  ``G``
    has at least one row: the interior-point method follows its central path.
    """

    n: int
    value: callable
    grad: callable
    hess: callable
    hess_rows: np.ndarray
    hess_cols: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    G: np.ndarray | None = None
    h: np.ndarray | None = None

    def __post_init__(self):
        rows, cols = np.asarray(self.hess_rows), np.asarray(self.hess_cols)
        for name, idx in (("hess_rows", rows), ("hess_cols", cols)):
            if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
                raise DomainError(f"{name} must be a 1-d array of integers, got {idx.dtype} of shape {idx.shape}")
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise DomainError(f"{name} must lie in [0, {self.n}), got [{idx.min()}, {idx.max()}]")
        if rows.size != cols.size:
            raise DomainError(f"Hessian positions differ in length: {rows.size} rows, {cols.size} columns")
        self.hess_rows, self.hess_cols = rows.astype(np.int64), cols.astype(np.int64)
        self.A = sp.csr_array((0, self.n)) if self.A is None else _csr(self.A)
        self.b = np.zeros(0) if self.b is None else np.atleast_1d(np.asarray(self.b, float))
        self.G = sp.csr_array((0, self.n)) if self.G is None else _csr(self.G)
        self.h = np.zeros(0) if self.h is None else np.atleast_1d(np.asarray(self.h, float))
        if self.A.shape != (self.b.size, self.n):
            raise DomainError(f"equality block shape mismatch: A {self.A.shape}, b {self.b.shape}")
        if self.G.shape != (self.h.size, self.n):
            raise DomainError(f"inequality block shape mismatch: G {self.G.shape}, h {self.h.shape}")
        if not self.h.size:
            raise DomainError("a program needs at least one inequality row")


@dataclass
class SolveResult:
    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    slacks: np.ndarray
    status: str
    residuals: dict
    objective: float
    iterations: int
    polish_rounds: int = 0      # active-set rounds of the polish, 0 when none ran
    polished: bool = False      # the polished iterate was accepted

    @property
    def max_residual(self):
        return max(self.residuals.values()) if self.residuals else np.inf


# the residuals' names, in the order ``_residuals`` returns them
RESIDUALS = ("stationarity", "primal_eq", "primal_ineq", "complementarity")


def _sup(v):
    """Sup-norm of v; 0 for an empty v."""
    return float(np.max(np.abs(v), initial=0.0))


def _matvec(M, data=None):
    """The product v -> M @ v for a CSR or CSC array ``M``, with the values
    ``data`` in place of M's when given.

    It calls the kernel that scipy's ``@`` calls (``csr_matvec`` or
    ``csc_matvec`` of ``scipy.sparse._sparsetools``) on the same arrays, so
    the product is the same byte for byte, without the dispatch of ``@``,
    which takes longer than the product itself on a day's dispatch.  The
    kernel converts v to a contiguous float array but reads as many
    entries as M has columns, so the length of v is checked here.
    """
    matvec = _sparsetools.csr_matvec if M.format == "csr" else _sparsetools.csc_matvec
    return _kernel_product(matvec, M.shape, M.indptr, M.indices, M.data if data is None else data)


def _kernel_product(matvec, shape, indptr, indices, data):
    """``_matvec`` on the arrays of a matrix of ``shape``, with the kernel
    ``matvec`` (``csr_matvec`` or ``csc_matvec``)."""
    rows, cols = shape

    def product(v):
        if v.shape != (cols,):
            raise ValueError(f"product of a matrix of {cols} columns with a vector of shape {v.shape}")
        out = np.zeros(rows)
        matvec(rows, cols, indptr, indices, data, v, out)
        return out

    return product


class _Products(NamedTuple):
    """The products with A, G, A^T and G^T of one program (``_matvec``).

    A^T of the CSR array A is the CSC array on A's own arrays, so no
    transpose is formed: ``csc_matvec`` adds each output's terms in the
    order of A's rows, as ``csr_matvec`` does on A^T in CSR form, and the
    products are the same bytes."""

    A: callable
    G: callable
    AT: callable
    GT: callable

    @classmethod
    def of(cls, prog):
        return cls(_matvec(prog.A), _matvec(prog.G), _matvec(prog.A.T), _matvec(prog.G.T))


def _residuals(prog, ops, x, y, z, s):
    """KKT residuals, with the products ``ops`` of the program's matrices."""
    r_d = prog.grad(x) + ops.AT(y) + ops.GT(z)
    r_p = ops.A(x) - prog.b
    r_g = ops.G(x) + s - prog.h
    return r_d, r_p, r_g, s * z


def _merit(residuals, mu):
    """Residual norm of ``_residuals`` output, complementarity taken against mu."""
    r_d, r_p, r_g, comp = residuals
    c = comp - mu
    return math.sqrt(float(r_d @ r_d) + float(r_p @ r_p) + float(r_g @ r_g) + float(c @ c))


def _measure(iterate, residuals):
    """(whether the iterate and the residuals are finite, the residuals'
    sup-norm), from one vector of them all.  Complementarity, the last
    residual, is not tested: s z of a finite s and z can only overflow,
    which the sup-norm shows."""
    v = np.concatenate(iterate + residuals)
    comp_from, residuals_from = v.size - residuals[-1].size, sum(map(len, iterate))
    return np.isfinite(v[:comp_from]).all(), float(np.abs(v[residuals_from:]).max(initial=0.0))


def _step_to_boundary(v, dv, frac=1.0):
    """``frac`` times the largest step a <= 1 with v + a dv >= 0, or 1 when
    no entry of dv is negative."""
    neg = dv < 0
    if not neg.any():
        return 1.0
    ratio = np.divide(-v, dv, out=np.full(v.size, np.inf), where=neg)     # inf off neg
    return min(1.0, float(ratio.min())) * frac


def _sorted_unique(v):
    """The distinct values of v, sorted: ``np.unique`` without its hashing,
    which on the 622k keys of a T=8760 pattern is 20 times slower."""
    v = np.sort(v)
    return v[np.r_[True, v[1:] != v[:-1]]] if v.size else v


class _KKTPattern:
    """CSC sparsity pattern of the statically regularised KKT matrix

        [[H + G^T diag(w) G + reg I,  B^T     ],
         [B,                          -delta I]]

    built once from the structure of H (its entries' positions ``hess_rows``
    and ``hess_cols``), G and B.  Each Newton step then only refills one data
    vector (``fill``) in the pattern's order.  A solve builds one over
    B = [A; G] and restricts it (``restrict``) to A's rows, for the start
    point and the Newton steps, and to each polish round's active rows.

    The values are those that assembling the matrix from scipy.sparse
    operations gives, bit for bit: every G^T W G entry sums its terms
    (G_ik w_i) G_il over the rows i of G in descending order, the order
    scipy's sparse product accumulates them in; H comes first and the
    regularisation last.  Where scipy's sparse sums drop an exact zero of
    the top-left block, as G's barrier pairs of the start point's and the
    polish's matrices (filled without weights ``w``), the pattern stores it.

    A pattern that is factored orders itself for the band LU (``band``).
    """

    def __init__(self, n, B, G=None, hess_rows=(), hess_cols=()):
        N = n + B.shape[0]
        self.n, self.N = n, N
        Bc = B.tocoo()
        brow, bcol = Bc.row.astype(np.int64), Bc.col.astype(np.int64)
        # an entry (row, col) has key col * N + row: sorted keys are CSC order
        h_keys = np.asarray(hess_cols, dtype=np.int64) * N + np.asarray(hess_rows, dtype=np.int64)
        parts = [np.arange(N, dtype=np.int64) * (N + 1), (n + brow) * N + bcol, bcol * N + n + brow, h_keys]
        pair_keys = None
        if G is not None and G.nnz:
            # every pair (k, l) of entries in a row i of G, rows descending
            counts = np.diff(G.indptr)
            row = np.repeat(np.arange(G.shape[0]), counts)
            size = counts[row]
            a = np.repeat(np.arange(G.nnz), size)
            b = np.repeat(G.indptr[row], size) + np.arange(a.size) - np.repeat(np.cumsum(size) - size, size)
            a, b = a[::-1], b[::-1]
            pair_keys = G.indices[b].astype(np.int64) * N + G.indices[a]
            parts.append(pair_keys)
            self.pair_row, self.pair_a, self.pair_b = row[a], G.data[a], G.data[b]
        self.keys = _sorted_unique(np.concatenate(parts))
        self.rows = (self.keys % N).astype(np.int32)
        self.indptr = np.searchsorted(self.keys, np.arange(N + 1, dtype=np.int64) * N).astype(np.int32)
        self.diag = np.searchsorted(self.keys, np.arange(N, dtype=np.int64) * (N + 1))
        self.b_pos = np.searchsorted(self.keys, bcol * N + n + brow)
        self.bt_pos = np.searchsorted(self.keys, (n + brow) * N + bcol)
        self.b_data, self.b_row = Bc.data, brow
        self.pair_pos = None if pair_keys is None else np.searchsorted(self.keys, pair_keys)
        # H's entries in the pattern, and its distinct entries in CSR order
        # with the start of each row, for the row sums of |H|
        self.h_pos = np.searchsorted(self.keys, h_keys)
        distinct = _sorted_unique(self.h_pos)
        self.h_csr = distinct[np.lexsort((self.keys[distinct] // N, self.rows[distinct]))]
        csr_rows = self.rows[self.h_csr]
        self.h_starts = np.flatnonzero(np.r_[True, csr_rows[1:] != csr_rows[:-1]])

    def restrict(self, keep):
        """The pattern with only the rows of B that the mask ``keep`` marks,
        equal entry for entry to the one built from those rows.

        Dropping a row of B drops its entries, its transpose's and its
        diagonal, and renumbers the later rows.  The renumbering keeps the
        order of the remaining keys, so they need no sort, and every
        position into the pattern maps through the count of kept entries
        before it.
        """
        n, N = self.n, self.N
        kept = np.concatenate([np.ones(n, dtype=bool), keep])
        index = np.cumsum(kept) - 1
        cols = self.keys // N
        entries = kept[self.rows] & kept[cols]
        position = np.cumsum(entries) - 1
        b_kept = keep[self.b_row]
        out = copy.copy(self)
        out.N = N = n + int(np.count_nonzero(keep))
        out.keys = index[cols[entries]] * N + index[self.rows[entries]]
        out.rows = index[self.rows[entries]].astype(np.int32)
        out.indptr = np.searchsorted(out.keys, np.arange(N + 1, dtype=np.int64) * N).astype(np.int32)
        out.diag = position[self.diag[kept]]
        out.b_pos, out.bt_pos = position[self.b_pos[b_kept]], position[self.bt_pos[b_kept]]
        out.b_data, out.b_row = self.b_data[b_kept], index[n + self.b_row[b_kept]] - n
        out.pair_pos = None if self.pair_pos is None else position[self.pair_pos]
        out.h_pos, out.h_csr = position[self.h_pos], position[self.h_csr]
        out.__dict__.pop("band", None)      # of the kept rows alone
        return out

    def blocks(self):
        """The number of independent column blocks: the connected components
        of the pattern's graph (a node per row, an edge per entry) that hold
        a column of the program.  A row without entries is a component of
        its own, and no block.  The pattern is symmetric, so its CSC arrays
        are its graph's CSR arrays too, and the kernel of scipy's
        ``connected_components`` takes them without a sparse array to
        validate; ``band`` calls ``reverse_cuthill_mckee``'s the same way."""
        labels = np.empty(self.N, dtype=np.int32)
        _connected_components_undirected(self.rows, self.indptr, self.rows, self.indptr, labels)
        return _sorted_unique(labels[: self.n]).size

    @cached_property
    def band(self):
        """(order, half-bandwidth bw, each entry's position in the band
        array) for the band LU.

        The order is the Cuthill–McKee order of the pattern's own graph, over
        all of its entries.  (Reversed, the textbook RCM, it leaves day24's
        dual-degenerate polishes without a solution, and iterative refinement
        oscillates on a regularised singular matrix.)  The band array has
        3 bw + 1 rows in Fortran order, as ``dgbtrf`` takes it, and entry
        (i, j) at row 2 bw + rank(i) - rank(j) of column rank(j).

        Each step of the band LU updates a dense block of about bw x 2 bw
        entries.  A dispatch's Newton and polish patterns have bw <= 30 at
        any horizon, so bw^2 stays far below their entry count; a row over
        every variable gives bw near N, and such a pattern is factored as a
        dense matrix would be.
        """
        N = self.N
        order = _reverse_cuthill_mckee(self.rows, self.indptr, N)[::-1]
        rank = np.empty(N, dtype=np.int64)
        rank[order] = np.arange(N)
        col_rank = rank[self.keys // N]
        offset = rank[self.rows] - col_rank
        bw = int(np.max(np.abs(offset), initial=0))
        return order, bw, col_rank * (3 * bw + 1) + 2 * bw + offset

    def band_array(self, data):
        """``data`` in the band array of ``band``, as ``dgbtrf`` takes it."""
        order, bw, position = self.band
        ab = np.zeros((self.N, 3 * bw + 1))
        ab.ravel()[position] = data
        return ab.T

    def hessian(self, values):
        """H's values scattered into the pattern (duplicates summed) and the
        objective scale max(1, ||H||_inf) the regularisation is taken
        relative to.

        The row sums of |H| run over each row's entries in column order, as
        scipy's sparse norm sums them."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.h_pos.shape:
            raise DomainError(f"hess returned values of shape {values.shape}; the program "
                              f"declares {self.h_pos.size} Hessian entries")
        data = np.bincount(self.h_pos, weights=values, minlength=self.keys.size).astype(float, copy=False)
        if not self.h_csr.size:
            return data, 1.0
        return data, max(1.0, float(np.max(np.add.reduceat(np.abs(data[self.h_csr]), self.h_starts))))

    def fill(self, hess_values=None, w=None, reg=0.0, delta=0.0):
        """Data vector of the matrix, in pattern order."""
        data = np.zeros(self.keys.size) if hess_values is None else hess_values.copy()
        if w is not None and self.pair_pos is not None:
            data += np.bincount(self.pair_pos, weights=(self.pair_a * w[self.pair_row]) * self.pair_b,
                                minlength=self.keys.size)
        data[self.diag[: self.n]] += reg
        data[self.diag[self.n :]] = -delta
        data[self.b_pos] = self.b_data
        data[self.bt_pos] = self.b_data
        return data

    def operator(self, data):
        """The product v -> K v with the matrix K of values ``data``:
        ``csc_matvec`` on the pattern's arrays, as ``_matvec`` calls it.  K
        keeps the exact zeros that scipy's sparse sums drop, which leave a
        product with a finite vector unchanged."""
        return _kernel_product(_sparsetools.csc_matvec, (self.N, self.N), self.indptr, self.rows, data)


def _factor(pattern, data):
    """``solve(rhs)`` with the band LU of the matrix with values ``data`` in
    ``pattern``, or None when an entry is not finite or a pivot is exactly
    zero.  ``dgbtrf`` factors a matrix with entries that are not finite, so
    the entries are checked first.
    """
    if not np.isfinite(data).all():
        return None
    order, bw, _ = pattern.band
    lu, piv, info = lapack.dgbtrf(pattern.band_array(data), bw, bw, overwrite_ab=1)
    if info:
        return None

    def solve(rhs):
        sol = np.empty(pattern.N)
        sol[order] = lapack.dgbtrs(lu, bw, bw, rhs[order], piv, overwrite_b=1)[0]
        return sol

    return solve


def _kkt_solver(pattern, data, rhs=None, refine=None, rounds=1):
    """Factor the matrix with values ``data`` in ``pattern`` and return
    (the solution of ``rhs``, ``solve``), or None when the factorisation
    fails or that solution is not finite.

    Factors of tiny pivots are neither refused nor infinite, but solves
    with them overflow; the first solve, which the caller needs anyway,
    checks them.  Without ``rhs`` it returns ``solve`` alone, on factors
    that no solve has checked.

    Each solve takes ``rounds`` steps of iterative refinement against the
    matrix with values ``refine`` (default: the factored one), so a
    regularised factorisation can serve the pure system.
    """
    lu_solve = _factor(pattern, data)
    if lu_solve is None:
        return None
    K0 = pattern.operator(data if refine is None else refine)

    def solve(rhs):
        sol = lu_solve(rhs)
        for _ in range(rounds):
            sol += lu_solve(rhs - K0(sol))
        return sol

    if rhs is None:
        return solve
    with np.errstate(all="ignore"):     # a solution that is not finite is refused here
        sol = solve(rhs)
    return (sol, solve) if np.isfinite(sol).all() else None


def _min_norm_point(pattern, b):
    """Least-norm x minimising ||A x - b||, or None when the factorisation fails.

    Factors the regularised system [I A^T; A -1e-12 I] in ``pattern``, the
    solve's pattern restricted to A's rows, and refines against the pure
    one, so rank-deficient and inconsistent A are handled alike.
    """
    n = pattern.n
    first = _kkt_solver(pattern, pattern.fill(reg=1.0, delta=1e-12), np.concatenate([np.zeros(n), b]),
                        pattern.fill(reg=1.0), rounds=3)
    return None if first is None else first[0][:n]


def _polish_solve(prog, ops, pattern, x0, active, start):
    """Newton steps on the equality-constrained KKT system of a fixed active
    set, from ``x0``: yields (x, y, z of the active rows) after each of three
    steps, or None and stops when a factorisation or a solve fails.

    ``pattern`` is the polish's pattern over [A; G], restricted here to
    [A; G[active]], and ``start`` holds the Hessian values and the gradient
    at ``x0``.  A step whose Hessian values equal the factored ones, as a
    quadratic objective's always do, reuses the factorisation.
    """
    n, p = prog.n, prog.A.shape[0]
    pattern = pattern.restrict(np.concatenate([np.ones(p, dtype=bool), active]))
    rhs = np.concatenate([prog.b, prog.h[active]])
    xx = x0.copy()
    H, gx = start
    factored = None     # the Hessian values ``solve`` factors
    for k in range(3):
        if k:
            H = prog.hess(xx)
            gx = prog.grad(xx)
        kkt_rhs = np.concatenate([-gx, rhs - np.concatenate([ops.A(xx), ops.G(xx)[active]])])
        if factored is None or not np.array_equal(H, factored):
            factored = np.array(H, dtype=float)
            hv, scale = pattern.hessian(factored)
            # Factor a lightly regularized copy (redundant active rows make the
            # pure system singular), then refine against the pure system so
            # the regularization does not leak into the active-row residuals.
            first = _kkt_solver(pattern, pattern.fill(hv, reg=1e-14 * scale, delta=1e-13), kkt_rhs,
                                pattern.fill(hv), rounds=3)
            sol, solve = first or (None, None)
        else:
            sol = solve(kkt_rhs)
        if sol is None or not np.isfinite(sol).all():
            yield None
            return
        xx = xx + sol[:n]
        yield xx, sol[n : n + p], sol[n + p :]


def _polish(prog, ops, pattern, x, y, z, s, tol):
    """Active-set refinement from a near-optimal interior-point iterate.

    Starts from a complementarity-based guess and searches: a round takes one
    Newton step from x on the active set's equality-constrained KKT system,
    drops the rows with negative multipliers and adds the rows the step
    violates.  A round that changes nothing takes two more steps of the same
    Newton run and checks the three-step iterate the same way; if that asks
    for a change too, the search goes on, for at most 8 rounds.  Degenerate
    faces leave weakly-active rows with near-zero multipliers, which is fine.
    Every round restricts ``pattern``, the solve's pattern over [A; G].
    Returns (improved iterate or None when no consistent active set is
    found, rounds taken).

    A row is dropped as soon as its multiplier is negative beyond rounding.
    Linearly dependent active rows (kappa_phi_lo and kappa_psi_hi are tied
    by the reserve row phi + psi = 1) split one multiplier between them in a
    way the factorisation decides, e.g. +-1.5e-8; keeping the negative half
    and clipping it to zero later would leave that much stationarity error.
    """
    m = prog.h.size
    start = (prog.hess(x), prog.grad(x))
    scale_h = 1.0 + np.abs(prog.h)
    active = (z > s) | (s <= 1e3 * tol * scale_h)

    def flips(out):
        """The rows an iterate adds to or drops from the active set."""
        xx, _, za = out
        flip = (ops.G(xx) - prog.h > 10 * tol * scale_h) & ~active
        flip[active] = za < -1e-12
        return flip

    for rounds in range(1, 9):
        steps = _polish_solve(prog, ops, pattern, x, active, start)
        out = next(steps)
        if out is not None and not flips(out).any():
            *_, out = steps     # steps 2 and 3 of the same Newton run
        if out is None:
            return None, rounds
        flip = flips(out)
        if not flip.any():
            break
        active = active ^ flip
    else:
        return None, rounds
    xx, yy, za = out
    zz = np.zeros(m)
    zz[active] = np.maximum(za, 0.0)
    ss = prog.h - ops.G(xx)
    if np.any(ss < -10 * tol):
        return None, rounds
    ss = np.maximum(ss, 0.0)
    return (xx, yy, zz, ss), rounds


# Absolute KKT tolerance (sup-norm) and iteration cap of ``solve_convex``,
# read at call time.
TOL = 1e-8
ITER_CAP = 200


def solve_convex(program):
    """Solve the program to absolute KKT residuals <= ``TOL`` (sup-norm).

    Optimal results certify stationarity, primal feasibility, and
    complementarity.  Hitting the iteration cap ``ITER_CAP`` returns the
    best iterate with its residuals, and HiGHS (``_phase1_min_violation``)
    reports a program whose inequalities cannot be met infeasible; when it
    reaches no verdict the status stays ``iter_limit``.
    """
    result = _solve(program)
    if result.status == ITER_LIMIT:
        t_star = _phase1_min_violation(program)
        if t_star is not None and t_star > 1e-7 * (1.0 + float(np.linalg.norm(program.h, np.inf))):
            result.status = INFEASIBLE
    return result


def _solve(prog):
    """The interior-point loop and the polish of ``solve_convex``, to KKT
    residuals <= ``TOL`` within ``ITER_CAP`` iterations, without the
    diagnosis."""
    tol = TOL
    n, p, m = prog.n, prog.A.shape[0], prog.G.shape[0]
    ops = _Products.of(prog)
    # one pattern per solve; its rows of A serve the start point and the Newton steps
    full = _KKTPattern(n, sp.vstack([prog.A, prog.G], format="csr"), prog.G, prog.hess_rows, prog.hess_cols)
    pattern = full.restrict(np.arange(p + m) < p)

    # Equality consistency gate: if Ax = b has no solution at all, stop here.
    # A failed factorisation of the start-point system ends the solve too.
    if p:
        x = _min_norm_point(pattern, prog.b)
        if x is None or np.linalg.norm(ops.A(x) - prog.b, np.inf) > 1e-8 * (1.0 + np.linalg.norm(prog.b, np.inf)):
            return SolveResult(np.zeros(n) if x is None else x, np.zeros(p), np.zeros(m), np.zeros(m),
                               ITER_LIMIT if x is None else INFEASIBLE,
                               dict.fromkeys(RESIDUALS, np.inf), np.nan, 0)
    else:
        x = np.zeros(n)

    raw = prog.h - ops.G(x)
    shift = max(0.0, -float(np.min(raw))) + max(1.0, 0.01 * float(np.linalg.norm(prog.h, np.inf)))
    s = raw + shift
    z = np.ones(m)
    y = np.zeros(p)

    best = None     # (sup-norm of the residuals, x, y, z, s); no step changes an iterate in place
    best_mu = np.inf
    status = ITER_LIMIT
    stall = 0
    it = 0
    residuals = None     # of (x, y, z, s) when a line search has formed them
    for it in range(1, ITER_CAP + 1):
        if residuals is None:
            residuals = _residuals(prog, ops, x, y, z, s)
        r_d, r_p, r_g, comp = residuals
        finite, res_now = _measure((x, y, z, s), residuals)
        residuals = None
        if not finite:
            break
        mu = float(np.add.reduce(comp)) / m
        improved = False
        if best is None or res_now < 0.999 * best[0]:
            best = (res_now, x, y, z, s)
            improved = True
        if mu < 0.999 * best_mu:
            best_mu = mu
            improved = True
        if improved:
            stall = 0
        else:
            stall += 1
            if stall >= 30:
                break
        if res_now <= tol:
            status = OPTIMAL
            break
        # stop walking away from an iterate that the polish will take
        if best[0] <= np.sqrt(tol) and res_now > 100 * best[0]:
            break

        w = np.minimum(z / np.maximum(s, 1e-300), 1e18)
        # regularize on the objective scale only; the barrier term GtWG is
        # meant to be stiff near active rows and must not inflate reg
        hv, scale = pattern.hessian(prog.hess(x))
        data = pattern.fill(hv, w, reg=1e-11 * scale, delta=1e-12)

        def newton_rhs(r_c):
            return np.concatenate([-r_d - ops.GT((-r_c + z * r_g) / s), -r_p])

        def newton(r_c, sol):
            dx, dy = sol[:n], sol[n:]
            ds = -r_g - ops.G(dx)
            return dx, dy, (-r_c - z * ds) / s, ds

        # one round of iterative refinement on the reduced system; the
        # factorisation comes with the predictor's step
        predictor = newton_rhs(comp)
        factored = _kkt_solver(pattern, data, predictor)
        if factored is None:
            data[pattern.diag[:n]] += 1e-6
            factored = _kkt_solver(pattern, data, predictor)
        if factored is None:
            break
        first, solve = factored

        # Mehrotra: affine predictor sets the centering weight.
        dxa, dya, dza, dsa = newton(comp, first)
        ap = _step_to_boundary(s, dsa)
        ad = _step_to_boundary(z, dza)
        mu_aff = float((s + ap * dsa) @ (z + ad * dza)) / m
        sigma = min(max((mu_aff / mu) ** 3 if mu > 0 else 0.1, 1e-8), 0.9999)
        r_c = comp + dsa * dza - sigma * mu
        # a non-finite corrector step surfaces as a non-finite iterate,
        # which ends the loop at the next finiteness check
        dx, dy, dz, ds = newton(r_c, solve(newton_rhs(r_c)))
        frac = min(0.9999, max(0.995, 1.0 - 10.0 * mu))
        ap = _step_to_boundary(s, ds, frac)
        ad = _step_to_boundary(z, dz, frac)

        # The Mehrotra step is not a descent direction for the residual norm
        # (it tracks the central path), so damp it only against outright
        # divergence.  The full step comes first; quadratic objectives and
        # the near-quadratic expected-cost polynomials almost always take it.
        target_mu = sigma * mu
        m0 = _merit((r_d, r_p, r_g, comp), target_mu)
        scale_k = 1.0
        cand = None
        for _ in range(16):
            cand = (x + scale_k * ap * dx, y + scale_k * ad * dy,
                    z + scale_k * ad * dz, s + scale_k * ap * ds)
            if cand[3].min() > 0 and cand[2].min() > 0:
                residuals = _residuals(prog, ops, *cand)
                if _merit(residuals, target_mu) <= 10.0 * m0:
                    break
                residuals = None
            scale_k *= 0.5
        x, y, z, s = cand

    if status != OPTIMAL and best is not None:
        _, x, y, z, s = best
    report = _report(prog, ops, x, y, z, s)

    # Active-set polish from any near-optimal iterate of a connected program
    # (see the module notes): re-solving the equality-constrained KKT system
    # sidesteps the ill-conditioning of the barrier system at small mu.
    polish_rounds, polished = 0, False
    if status in (OPTIMAL, ITER_LIMIT) and best is not None and best[0] <= np.sqrt(tol) \
            and full.blocks() == 1:
        candidate, polish_rounds = _polish(prog, ops, full, x, y, z, s, tol)
        if candidate is not None:
            r_new = _report(prog, ops, *candidate)
            if max(r_new.values()) < max(report.values()):
                (x, y, z, s), report, polished = candidate, r_new, True
        if max(report.values()) <= tol:
            status = OPTIMAL

    # the objective last, so the program's last evaluation is at the returned x
    return SolveResult(
        x=x, eq_duals=y, ineq_duals=z, slacks=s, status=status,
        residuals=report, objective=float(prog.value(x)), iterations=it,
        polish_rounds=polish_rounds, polished=polished,
    )


def _report(prog, ops, x, y, z, s):
    """The sup-norms of the KKT residuals, by name."""
    return dict(zip(RESIDUALS, map(_sup, _residuals(prog, ops, x, y, z, s))))


def _phase1_min_violation(prog):
    """Minimize the worst inequality violation subject to the equalities.

    Returns the optimal t of  min t  s.t.  A x = b,  G x - h <= t,  t >= -1
    (x free), a linear program solved by HiGHS: inf when HiGHS finds it
    infeasible, which only A x = b can make it, and None when HiGHS reaches
    no verdict (an iteration or time limit, numerical trouble).
    """
    n, m, p = prog.n, prog.G.shape[0], prog.A.shape[0]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    bounds = np.full((n + 1, 2), [-np.inf, np.inf])
    bounds[-1, 0] = -1.0
    res = optimize.linprog(c, A_ub=sp.hstack([prog.G, np.full((m, 1), -1.0)]), b_ub=prog.h,
                           A_eq=sp.hstack([prog.A, sp.csr_array((p, 1))]), b_eq=prog.b,
                           bounds=bounds, method="highs")
    if res.status == 0:
        return float(res.x[-1])
    return np.inf if res.status == 2 else None

