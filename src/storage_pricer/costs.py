"""Generator and storage cost models.

Two representations of fleet cost live side by side: an exact merit-order
piecewise curve built from per-generator segments (used for ex-post metric
evaluation) and a fitted polynomial of degree <= 4 (used inside dispatch,
where the expectation of a polynomial of an affine-Gaussian argument has a
closed form).

The closed form is one kernel (``expected_cost_derivatives``) over an
``ExpectedCostTable``: a term plan stored position-major, so each output's
l-th terms are one contiguous block, and the error moments per period.
Dispatches, stacks of dispatches and the convexity gate's grid all reach
it as a (k, T) point; it takes Python's float powers of g and phi up to the
polynomial's degree in one pass and sums each output's terms left to
right, equal bit for bit to the scalar formula.  A program's objective
(``expected_cost_objective``) reuses the kernel's outputs while x is
unchanged, comparing x alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import check_moments, raw_moment
from .errors import DomainError, UnsupportedDegreeError

MAX_DEGREE = 4
# Points of g in the convexity gate's grid, and of the merit-curve fit.
GATE_G_POINTS = 15
FIT_POINTS = 200


@dataclass(frozen=True)
class CostPolynomial:
    """Fleet cost as sum_i coeffs[i] * g**i, valid on [g_min, g_max].

    Construction verifies that marginal cost stays nonnegative on the
    declared operating domain (dense sampling plus a derivative sign check
    at the endpoints of monotone runs).
    """

    coeffs: tuple
    g_min: float = 0.0
    g_max: float = 1.0
    rmse: float | None = None

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) == 0:
            raise DomainError("cost polynomial needs at least a constant term")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise UnsupportedDegreeError(f"degree {len(coeffs) - 1} exceeds the supported maximum {MAX_DEGREE}")
        if self.g_min > self.g_max:
            raise DomainError("empty operating domain")
        object.__setattr__(self, "coeffs", coeffs)
        grid = np.linspace(self.g_min, self.g_max, 257)
        marg = self.marginal(grid)
        if np.min(marg) < -1e-9 * max(1.0, float(np.max(np.abs(marg)))):
            raise DomainError(
                f"marginal cost dips to {float(np.min(marg)):.6g} on [{self.g_min}, {self.g_max}]"
            )

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def value(self, g):
        out = np.zeros_like(np.asarray(g, dtype=float))
        for i, c in enumerate(self.coeffs):
            out = out + c * np.asarray(g, dtype=float) ** i
        return float(out) if np.ndim(g) == 0 else out

    def marginal(self, g):
        g = np.asarray(g, dtype=float)
        out = np.zeros_like(g)
        for i, c in enumerate(self.coeffs):
            if i >= 1:
                out = out + i * c * g ** (i - 1)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Segment:
    """One merit-order block: capacity and a per-unit quadratic cost c0 + c1 x + c2 x^2."""

    capacity: float
    c0: float
    c1: float
    c2: float = 0.0

    def __post_init__(self):
        if self.capacity <= 0:
            raise DomainError(f"segment capacity must be > 0, got {self.capacity}")

    def cost(self, x):
        return self.c0 + self.c1 * x + self.c2 * x * x

    def marginal_at(self, x):
        return self.c1 + 2.0 * self.c2 * x


@dataclass(frozen=True)
class FleetCurve:
    """Merit-order stack of segments with non-decreasing marginal cost."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.c1))
        if not segs:
            raise DomainError("fleet has no segments")
        prev_top = -math.inf
        for s in segs:
            if s.marginal_at(0.0) < prev_top - 1e-9:
                raise DomainError(
                    "segments violate merit order: marginal cost decreases across a boundary"
                )
            prev_top = s.marginal_at(s.capacity)
        object.__setattr__(self, "segments", segs)

    @property
    def total_capacity(self):
        return sum(s.capacity for s in self.segments)

    def scaled(self, factor):
        """Fleet with every segment capacity multiplied by ``factor`` (e.g. retirement)."""
        if factor <= 0:
            raise DomainError(f"capacity scale must be > 0, got {factor}")
        return FleetCurve(tuple(Segment(s.capacity * factor, s.c0, s.c1, s.c2) for s in self.segments))


@dataclass(frozen=True)
class StorageSpec:
    """Aggregate storage: power/energy caps, efficiency, marginal cost, initial stock."""

    p_max: float
    e_max: float
    eta: float
    marginal_cost: float
    e_init: float

    def __post_init__(self):
        if self.p_max <= 0 or self.e_max <= 0:
            raise DomainError("storage power and energy capacity must be > 0")
        if not (0.0 < self.eta <= 1.0):
            raise DomainError(f"efficiency must lie in (0, 1], got {self.eta}")
        if not (0.0 <= self.e_init <= self.e_max):
            raise DomainError(f"initial SoC {self.e_init} outside [0, {self.e_max}]")
        if self.marginal_cost < 0:
            raise DomainError("storage marginal cost must be >= 0")


# (d/dg, d/dphi) orders of the six outputs of expected_cost_derivatives
DERIVATIVES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@dataclass(frozen=True, eq=False)
class ExpectedCostTable:
    """Everything ``expected_cost_derivatives`` needs besides the point.

    The term plan lists each term as a coefficient and the powers of g, phi
    and d it multiplies, and the ``output`` it belongs to.  Terms are listed
    position-major: the first term of every output that has one, then the
    second, and so on.  The outputs that have an l-th term are a leading
    run of ``widths[l]`` outputs, as the term counts never grow along
    ``DERIVATIVES``, so each position is one contiguous block of the plan.
    """

    coef: np.ndarray
    g_power: np.ndarray
    phi_power: np.ndarray
    moment: np.ndarray
    output: np.ndarray
    widths: tuple
    raw: np.ndarray         # raw[t, k] = E[d_t^k], k up to the polynomial's degree


def expected_cost_table(poly, mu, sigma):
    """The ``ExpectedCostTable`` of ``poly`` for errors d_t with per-period
    means ``mu`` and spreads ``sigma``.

    E[G(g + phi d)] = sum_i c_i sum_k C(i,k) g^(i-k) phi^k E[d^k], and each
    derivative lowers the powers with falling factorials.  Every output's
    terms are listed in that order.
    """
    terms = [[(c * math.comb(i, k) * math.perm(i - k, dg) * math.perm(k, dphi), i - k - dg, k - dphi, k, j)
              for i, c in enumerate(poly.coeffs) if c != 0.0
              for k in range(i + 1) if math.perm(i - k, dg) and math.perm(k, dphi)]
             for j, (dg, dphi) in enumerate(DERIVATIVES)]
    counts = tuple(map(len, terms))
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts
    widths = tuple(sum(c > l for c in counts) for l in range(max(counts)))
    plan = [terms[j][l] for l, width in enumerate(widths) for j in range(width)]
    coef = np.array([term[0] for term in plan], dtype=float)
    g_power, phi_power, moment, output = np.array([term[1:] for term in plan], dtype=np.intp).reshape(-1, 4).T
    # each moment from Python floats by the scalar formula: numpy's power can differ in the last bit
    mu, sigma = np.asarray(mu, float).tolist(), np.asarray(sigma, float).tolist()
    for m, s in zip(mu, sigma):
        check_moments(m, s)
    degree = len(poly.coeffs) - 1
    raw = np.array([[raw_moment(m, s, k) for k in range(degree + 1)] for m, s in zip(mu, sigma)])
    return ExpectedCostTable(coef, g_power, phi_power, moment, output, widths, raw)


def expected_cost_derivatives(table, g, phi):
    """Value, d/dg, d/dphi, d2/dg2, d2/dg dphi and d2/dphi2 of E[G(g + phi d_t)].

    ``table`` comes from ``expected_cost_table``; ``g`` and ``phi`` broadcast
    against its period axis (shape (..., T)), and every output has their
    broadcast shape.  The reserve ratio is clamped into [0, 1] here.  Terms
    are summed in the closed form's order, so every output equals the
    scalar formula bit for bit.
    """
    return _derivatives(table, g, phi)


def _derivatives(table, g, phi, first=0):
    """``expected_cost_derivatives`` from output ``first`` on.

    The point's leading axes are flattened, so (g, phi) is a (k, T) stack,
    or (k, 1) for a point that is the same in every period, as the
    convexity gate's grid is.  Their powers, up to the polynomial's degree,
    are Python's float powers, taken in one pass: numpy's power, and even
    x * x, differ from them in the last bit on a few inputs, and dispatch
    duals on degenerate systems follow the last bit.  Every term
    ((coef g^a) phi^b) E[d^k] is one slice of one array, and each output
    sums its terms left to right from zero, as a loop over them would; the
    outputs share the additions of one term position, a contiguous block.
    """
    g, phi, raw = np.asarray(g, dtype=float), np.clip(phi, 0.0, 1.0), table.raw
    shape = np.broadcast(g, phi, raw[:, 0]).shape
    point_shape = np.broadcast(g, phi).shape
    point = np.empty((2,) + point_shape)
    point[0], point[1] = g, phi
    point = point.reshape(2, -1, point_shape[-1] if point_shape else 1)
    flat = point.ravel().tolist()
    powers = np.array([1.0] * len(flat) + flat + [v**k for k in range(2, raw.shape[1]) for v in flat])
    g_powers, phi_powers = powers.reshape((-1,) + point.shape).swapaxes(0, 1)
    rows = table.output >= first
    terms = ((table.coef[rows, None, None] * g_powers[table.g_power[rows]])
             * phi_powers[table.phi_power[rows]]) * raw.T[table.moment[rows], None, :]
    out = np.zeros((len(DERIVATIVES) - first, point.shape[1], shape[-1]))
    start = 0
    for width in table.widths:
        width -= first
        if width <= 0:
            break
        out[:width] += terms[start : start + width]
        start += width
    return tuple(out.reshape((len(DERIVATIVES) - first,) + shape))


def memoized_derivatives(table):
    """``expected_cost_derivatives`` of ``table`` as a function of (g, phi)
    that reuses its last outputs while the point is unchanged.

    The last point is kept as a copy, so changing the caller's array in
    place gives fresh values.  The outputs are shared between calls and
    must not be modified.
    """
    last = None

    def derivatives(g, phi):
        nonlocal last
        if last is None or not (np.array_equal(g, last[0]) and np.array_equal(phi, last[1])):
            last = (np.array(g, dtype=float), np.array(phi, dtype=float),
                    expected_cost_derivatives(table, g, phi))
        return last[2]

    return derivatives


def expected_cost_objective(table, g, phi, linear):
    """The program objective sum_t E[G(x[g] + x[phi] d_t)] + linear @ x.

    ``g`` and ``phi`` are column indices, period axis last: (k, T) for k
    stacked copies, (T,) for one; ``phi=None`` puts the whole reserve on the
    generator (phi = 1).  Returns the ``ConvexProgram`` fields (n, value,
    grad, hess, hess_rows, hess_cols; Hessian entries g/g, g/phi, phi/g,
    phi/phi) and the kernel, ``expected_cost_derivatives`` at x.

    A solver asks for the value, gradient and Hessian at the same iterate;
    all three come from one evaluation.  The kernel keeps a copy of the
    last x and reuses its outputs while x is unchanged, so a repeated
    request compares x once.  A new x goes to ``memoized_derivatives``,
    which still evaluates no (g, phi) twice in a row, as when a step moves
    only columns other than g and phi.
    """
    derivatives = memoized_derivatives(table)
    last = None     # (a copy of the last x, the kernel's outputs there)

    def kernel(x):
        nonlocal last
        if last is None or not np.array_equal(x, last[0]):
            last = (np.array(x, dtype=float), derivatives(x[g], 1.0 if phi is None else x[phi]))
        return last[1]

    def value(x):
        return float(linear @ x) + float(np.sum(kernel(x)[0]))

    def grad(x):
        _, dg, dp, *_ = kernel(x)
        out = linear.copy()
        out[g] += dg
        if phi is not None:
            out[phi] += dp
        return out

    def hess(x):
        *_, dgg, dgp, dpp = kernel(x)
        return np.concatenate([dgg] if phi is None else [dgg, dgp, dgp, dpp], axis=None)

    pairs = [(g, g)] if phi is None else [(g, g), (g, phi), (phi, g), (phi, phi)]
    rows = np.concatenate([np.ravel(r) for r, _ in pairs])
    cols = np.concatenate([np.ravel(c) for _, c in pairs])
    return dict(n=linear.size, value=value, grad=grad, hess=hess, hess_rows=rows, hess_cols=cols), kernel


def check_expected_cost_convexity(table, g_lo, g_hi):
    """Convexity gate: Hessian of E[G] PSD over a (g, phi) grid for each
    period of an ``expected_cost_table``: ``GATE_G_POINTS`` values of g
    spanning [g_lo, g_hi] by 7 values of phi spanning [0, 1].

    Raises DomainError at the first failing point (period, then g, then phi);
    dispatch refuses such polynomials.
    """
    g = np.linspace(g_lo, g_hi, GATE_G_POINTS)[:, None, None]
    phi = np.linspace(0.0, 1.0, 7)[None, :, None]
    dgg, dgp, dpp = _derivatives(table, g, phi, first=3)     # the Hessian's outputs alone
    tr = dgg + dpp
    det = dgg * dpp - dgp * dgp
    scale = np.maximum(1.0, np.maximum(np.abs(dgg), np.abs(dpp)))
    bad = np.argwhere(((tr < -1e-9 * scale) | (det < -1e-9 * scale * scale)).transpose(2, 0, 1))
    if bad.size:
        t, i, j = bad[0]
        raise DomainError(
            f"expected cost not convex at g={g[i, 0, 0]:.4g}, phi={phi[0, j, 0]:.3g} "
            f"(trace={tr[i, j, t]:.4g}, det={det[i, j, t]:.4g})"
        )


def merit_order_cost(fleet, q):
    """Exact fleet cost of producing q MW by stacking segments in merit order.

    ``q`` is one output or an array of outputs; the cost has its shape.
    Segment constants are incurred only for segments that actually run.

    Stacking subtracts one segment capacity after another from the output;
    the remainders are accumulated in that order, so the cost equals the
    segment-by-segment sum bit for bit.  (Subtracting a cumulative capacity
    instead moves the last bits, and polynomial fits and the prices of
    dual-degenerate dispatches follow them.)
    """
    q = np.asarray(q, dtype=float)
    cap = fleet.total_capacity
    outside = (q < -1e-9) | (q > cap + 1e-9)
    if np.any(outside):
        raise DomainError(f"output {float(q[outside].flat[0])} outside [0, {cap}]")
    segs = fleet.segments
    caps = np.array([s.capacity for s in segs])
    # left[:, j]: what is still to produce when segment j comes up, if every
    # segment below it ran in full
    left = np.empty((q.size, len(segs)))
    left[:, 0] = np.clip(q, 0.0, cap).ravel()
    left[:, 1:] = caps[:-1]
    left = np.subtract.accumulate(left, axis=1)
    partial = left < caps
    k = np.where(partial.any(axis=1), np.argmax(partial, axis=1), len(segs))  # segments in full
    below = np.cumsum([0.0] + [s.cost(s.capacity) for s in segs])
    j = np.minimum(k, len(segs) - 1)
    x = left[np.arange(q.size), j]
    c0, c1, c2 = np.array([(s.c0, s.c1, s.c2) for s in segs])[j].T
    out = below[k] + np.where((k < len(segs)) & (x > 0.0), c0 + c1 * x + c2 * x * x, 0.0)
    return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)


def fit_polynomial_to_merit_curve(fleet, degree, domain=None):
    """Least-squares polynomial fit of the cumulative merit cost curve.

    Uniform ``FIT_POINTS``-point grid over [0, total capacity].  ``domain``
    declares the operating range the fit must be valid on (marginal cost
    nonnegative); it defaults to the full [0, capacity] span.  The fitted
    polynomial carries the achieved RMSE.
    """
    if not (1 <= degree <= MAX_DEGREE):
        raise UnsupportedDegreeError(f"fit degree must lie in [1, {MAX_DEGREE}], got {degree}")
    cap = fleet.total_capacity
    if cap <= 0:
        raise DomainError("degenerate fleet with zero capacity")
    grid = np.linspace(0.0, cap, FIT_POINTS)
    y = merit_order_cost(fleet, grid)
    # Vandermonde least squares in a scaled variable for conditioning.
    scale = cap
    V = np.vander(grid / scale, degree + 1, increasing=True)
    sol, *_ = np.linalg.lstsq(V, y, rcond=None)
    coeffs = tuple(float(sol[i]) / scale**i for i in range(degree + 1))
    resid = V @ sol - y
    rmse = float(np.sqrt(np.mean(resid**2)))
    g_lo, g_hi = (0.0, cap) if domain is None else domain
    return CostPolynomial(coeffs=coeffs, g_min=g_lo, g_max=g_hi, rmse=rmse)

