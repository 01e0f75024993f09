"""Thin mixed-integer linear programming layer over scipy's HiGHS backend.

A :class:`MilpModel` is the arrays HiGHS takes: the objective, column
bounds and integrality, and a CSR constraint matrix with row bounds. The
stage and offline builders fill them by index arithmetic, and
:func:`solve` passes them to HiGHS as they are. Per-column and per-row
records are read-only views derived on demand. Keeping the model data
separate from the backend lets tests check a solution against the model
and solve the same model by other means.

:func:`solve` solves the LP relaxation first and runs branch-and-bound only
when the relaxation's optimal vertex is fractional: an integral optimal
vertex is already a MILP optimum, and an infeasible relaxation already
proves the MILP infeasible. The relaxation goes through the module binding
``_highs_lp``, branch-and-bound through ``_scipy_milp``, which receives the
model :func:`compact` leaves: no fixed columns, no free or emptied rows.

A receding-horizon run solves one relaxation an hour, and from hour to
hour only the right-hand sides, the bounds and the objective move: the
stage builder keeps the matrix the same. A :class:`WarmStart` carried
through the run lets each relaxation start from the previous hour's
optimal basis, so HiGHS's dual simplex re-optimizes in a few iterations
instead of solving from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult
from scipy.optimize import milp as _scipy_milp
from scipy.optimize._highspy._core import (
    HighsBasis,
    HighsModelStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
)

INT_TOL = 1e-4  # largest distance from an integer HiGHS may leave an integer variable


class Variable(NamedTuple):
    kind: str  # "integer" | "continuous"
    lb: float
    ub: float


class Constraint(NamedTuple):
    coeffs: dict[int, float]  # column -> coefficient
    sense: str  # "<=" | "=" | ">="
    rhs: float


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Maximize c @ x + constant subject to lo <= a @ x <= hi and
    lb <= x <= ub, with x[j] integer where integer[j]. HiGHS receives these
    arrays as they are, c negated."""

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray  # bool per column
    a: sparse.csr_matrix
    lo: np.ndarray
    hi: np.ndarray
    constant: float = 0.0

    @property
    def variables(self) -> tuple[Variable, ...]:
        """A read-only record per column, derived from the arrays."""
        return tuple(Variable("integer" if i else "continuous", lb, ub) for i, lb, ub
                     in zip(self.integer.tolist(), self.lb.tolist(), self.ub.tolist()))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """A read-only record per row, derived from the arrays."""
        ptr, cols, vals = self.a.indptr.tolist(), self.a.indices.tolist(), self.a.data.tolist()
        return tuple(
            Constraint(dict(zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]])),
                       "=" if lo == hi else ">=" if hi == np.inf else "<=",
                       hi if hi < np.inf else lo)
            for i, (lo, hi) in enumerate(zip(self.lo.tolist(), self.hi.tolist()))
        )


def csr(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
        shape: tuple[int, int]) -> sparse.csr_matrix:
    """The matrix holding each block of (row, column, value) entries, in
    canonical CSR form: each row's columns sorted, whatever the entry order."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape)


@dataclass
class SolveResult:
    status: str  # "optimal" | "feasible-gap" | "infeasible" | "error"
    values: np.ndarray | None
    objective: float | None
    gap: float
    message: str = ""

    def value(self, vid: int) -> float:
        assert self.values is not None
        return float(self.values[vid])


@dataclass
class WarmStart:
    """The optimal basis of the last relaxation one run solved, and the
    constraint matrix it belongs to. Kept per run, never shared, so a
    decision depends only on the run's own history."""

    matrix: sparse.csr_matrix | None = None
    basis: HighsBasis | None = None

    def basis_for(self, a: sparse.csr_matrix) -> HighsBasis | None:
        """The stored basis if `a` is the matrix it was found on, else None."""
        m = self.matrix
        if (m is not None and m.shape == a.shape
                and np.array_equal(m.indptr, a.indptr)
                and np.array_equal(m.indices, a.indices)
                and np.array_equal(m.data, a.data)):
            return self.basis
        return None


def _highs_lp(c: np.ndarray, a: sparse.csr_matrix, lo: np.ndarray, hi: np.ndarray,
              lb: np.ndarray, ub: np.ndarray, time_limit: float,
              basis: HighsBasis | None = None) -> OptimizeResult:
    """Minimize c @ x subject to lo <= a @ x <= hi and lb <= x <= ub with
    HiGHS, from `basis` when one is given.

    Returns a scipy-style `status` (0 optimal, 2 infeasible, 4 anything
    else, such as a limit) and `message`; when optimal, also `x` and the
    optimal `basis`.
    """
    n = len(c)
    csc = a.tocsc()
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("time_limit", float(time_limit))
    highs.passModel(n, a.shape[0], csc.nnz, MatrixFormat.kColwise, ObjSense.kMinimize,
                    0.0, c, lb, ub, lo, hi, csc.indptr, csc.indices, csc.data,
                    np.zeros(n, dtype=np.int32))
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    model_status = highs.getModelStatus()
    status = {HighsModelStatus.kOptimal: 0, HighsModelStatus.kInfeasible: 2}.get(model_status, 4)
    res = OptimizeResult(status=status,
                         message=highs.modelStatusToString(model_status),
                         x=None, basis=None)
    if res.status == 0:
        res.x = np.array(highs.getSolution().col_value)
        res.basis = highs.getBasis()
    return res


def solve(model: MilpModel, gap_tol: float = 1e-4,
          time_limit: float = 60.0, warm: WarmStart | None = None) -> SolveResult:
    """Maximize `model`: the LP relaxation first, branch-and-bound only when
    it is fractional.

    HiGHS solves the relaxation with simplex, so its solution is a vertex.
    If every integer variable sits within INT_TOL of an integer there, that
    vertex is optimal for the MILP too and is returned as `optimal` with gap
    0; an infeasible relaxation proves the MILP infeasible. Otherwise HiGHS
    branch-and-bound solves the compacted MILP (:func:`compact`) to
    relative gap `gap_tol` in what is left of `time_limit`, which bounds
    both calls together; the fixed columns are put back in its solution.

    With `warm`, the relaxation starts from the stored basis when the
    constraint matrix is the one it was found on, and an optimal relaxation
    stores its basis there for the next call.

    Integer variables in the returned values are rounded to the nearest
    integer; one further than INT_TOL from it is reported as an error.
    """
    deadline = time.perf_counter() + time_limit
    c, a, integer = model.c, model.a, model.integer
    try:
        basis = warm.basis_for(a) if warm is not None else None
        res = _highs_lp(-c, a, model.lo, model.hi, model.lb, model.ub, time_limit, basis)
        if warm is not None and res.status == 0:
            warm.matrix, warm.basis = a, res.basis
        settled = res.status == 2 or (res.status == 0 and not _fractional(res.x[integer]).any())
        if not settled:
            sub, live = compact(model)
            res = _scipy_milp(c=-sub.c, constraints=LinearConstraint(sub.a, sub.lo, sub.hi),
                              integrality=sub.integer.astype(int),
                              bounds=Bounds(sub.lb, sub.ub), options={
                                  "disp": False,
                                  "mip_rel_gap": gap_tol,
                                  "time_limit": max(deadline - time.perf_counter(), 0.0),
                              })
            if res.x is not None:
                x = model.lb.copy()  # every column left out is fixed at its lb
                x[live] = res.x
                res.x = x
    except Exception as exc:  # backend failure
        return SolveResult("error", None, None, np.inf, f"backend failure: {exc}")

    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    if res.status == 2:
        return SolveResult("infeasible", None, None, np.inf, res.message)
    if res.x is None:
        return SolveResult("error", None, None, np.inf, res.message)

    values = np.asarray(res.x, dtype=float).copy()
    far = _fractional(values[integer])
    if far.any():
        vid = int(np.flatnonzero(integer)[np.argmax(far)])
        return SolveResult(
            "error", None, None, np.inf,
            f"integer column {vid} at {values[vid]} is not integral",
        )
    values[integer] = np.round(values[integer]) + 0.0  # + 0.0 turns -0.0 into 0.0
    objective = float(c @ values + model.constant)

    if res.status == 0:
        return SolveResult("optimal", values, objective, gap, res.message)
    return SolveResult("feasible-gap", values, objective, gap, res.message)


def compact(model: MilpModel) -> tuple[MilpModel, np.ndarray]:
    """`model` without its fixed columns (lb == ub) and without the rows
    that are free or that no other column enters and whose bounds the fixed
    columns meet. The row bounds and the constant absorb the fixed columns.
    Also returns the indices of the columns kept, in order."""
    fixed = model.lb == model.ub
    live = np.flatnonzero(~fixed)
    x0 = np.where(fixed, model.lb, 0.0)
    shift = model.a @ x0
    lo, hi = model.lo - shift, model.hi - shift
    a = model.a[:, live]
    empty = np.diff(a.indptr) == 0
    rows = np.flatnonzero(~((lo == -np.inf) & (hi == np.inf)) & ~(empty & (lo <= 0) & (hi >= 0)))
    return MilpModel(model.c[live], model.lb[live], model.ub[live], model.integer[live],
                     a[rows], lo[rows], hi[rows], model.constant + float(model.c @ x0)), live


def _fractional(x: np.ndarray) -> np.ndarray:
    """Mask of the entries of `x` further than INT_TOL from an integer."""
    return np.abs(x - np.round(x)) > INT_TOL


def check_feasible(model: MilpModel, values: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Return descriptions of the columns and rows that `values` violates
    by more than tol."""
    x = np.asarray(values, dtype=float)
    ax = model.a @ x
    bad = [f"column {j} = {x[j]} outside [{model.lb[j]}, {model.ub[j]}]"
           for j in np.flatnonzero((x < model.lb - tol) | (x > model.ub + tol))]
    bad += [f"row {i}: {ax[i]} outside [{model.lo[i]}, {model.hi[i]}]"
            for i in np.flatnonzero((ax < model.lo - tol) | (ax > model.hi + tol))]
    return bad
