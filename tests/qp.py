"""Quadratic programs and an independent KKT check, for the solver's tests.

Not collected by pytest (no ``test_`` prefix); test modules import it.
"""

import numpy as np

from storage_pricer.errors import DomainError
from storage_pricer.solver import RESIDUALS, ConvexProgram, _csr


def quadratic_program(Q, c, A=None, b=None, G=None, h=None):
    """min 0.5 x^T Q x + c^T x (Q dense or sparse) as a ``ConvexProgram``."""
    Q = _csr(Q)
    entries = Q.tocoo()
    c = np.asarray(c, dtype=float)
    n = c.size
    return ConvexProgram(
        n=n,
        value=lambda x: float(0.5 * x @ (Q @ x) + c @ x),
        grad=lambda x: Q @ x + c,
        hess=lambda x: entries.data,
        hess_rows=entries.row, hess_cols=entries.col,
        A=A, b=b, G=G, h=h,
    )


def verify_kkt(program, result):
    """Recompute the KKT residuals of a result from scratch.

    Returns per-row stationarity residuals plus feasibility and
    complementarity figures, independent of the solver's internal state.
    """
    x, y, z = result.x, result.eq_duals, result.ineq_duals
    if x.size != program.n or y.size != program.A.shape[0] or z.size != program.G.shape[0]:
        raise DomainError("result dimensions do not match the program")
    rows = (program.grad(x) + program.A.T @ y + program.G.T @ z,
            program.A @ x - program.b,
            np.maximum(program.G @ x - program.h, 0.0),
            z * (program.h - program.G @ x))
    report = dict(zip(("stationarity_rows", "eq_rows", "ineq_violation_rows", "complementarity_rows"), rows))
    report.update((name, float(np.max(np.abs(row), initial=0.0))) for name, row in zip(RESIDUALS, rows))
    return report
