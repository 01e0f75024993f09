"""Thin mixed-integer linear programming layer over the HiGHS solver that
scipy bundles (``scipy.optimize._highspy._core._Highs``).

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
proves the MILP infeasible. Both runs go through the one module binding
``_scipy_milp``: the relaxation as the model with no integer column,
branch-and-bound on the model :func:`compact` leaves (no fixed columns, no
free or emptied rows). :func:`solve` reads HiGHS's model status, solution,
basis and gap from the finished run.

A receding-horizon run solves one relaxation an hour, and from hour to
hour only the right-hand sides, the bounds and the objective move: the
stage builder keeps the matrix the same. A :class:`WarmStart` carried
through the run lets each relaxation start from the previous hour's
optimal basis, so HiGHS's dual simplex re-optimizes in a few iterations
instead of solving from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import (
    HighsBasis,
    HighsModelStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
    kSolutionStatusFeasible,
)

INT_TOL = 1e-4  # largest distance from an integer HiGHS may leave an integer variable
# the limits at which a branch-and-bound run may stop holding a feasible incumbent
_LIMITS = (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit,
           HighsModelStatus.kSolutionLimit)


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
        if m is a or (m is not None and m.shape == a.shape
                and np.array_equal(m.indptr, a.indptr)
                and np.array_equal(m.indices, a.indices)
                and np.array_equal(m.data, a.data)):
            return self.basis
        return None


def _scipy_milp(model: MilpModel, time_limit: float, gap_tol: float,
                basis: HighsBasis | None = None) -> _Highs:
    """Run scipy's bundled HiGHS on `model`, minimizing -c @ x, to relative
    gap `gap_tol` within `time_limit` seconds and from `basis` when one is
    given; return the finished run to read status, solution and info from.

    Every HiGHS call dcsched makes goes through here: the relaxation (a
    model with no integer column) as well as branch-and-bound. perfbench
    traces the solver by wrapping this name.
    """
    csc = model.a.tocsc()
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("time_limit", float(time_limit))
    highs.setOptionValue("mip_rel_gap", float(gap_tol))
    highs.passModel(len(model.c), model.a.shape[0], csc.nnz, MatrixFormat.kColwise,
                    ObjSense.kMinimize, 0.0, -model.c, model.lb, model.ub, model.lo, model.hi,
                    csc.indptr, csc.indices, csc.data, model.integer.astype(np.int32))
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    return highs


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
    A branch-and-bound run that stops at a limit with an incumbent returns
    it as `feasible-gap`, with the gap HiGHS reports.

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
        highs = _scipy_milp(replace(model, integer=np.zeros_like(integer)), time_limit, gap_tol,
                            basis)
        status, gap, x = highs.getModelStatus(), 0.0, None
        if status == HighsModelStatus.kOptimal:
            x = np.array(highs.getSolution().col_value)
            if warm is not None:
                warm.matrix, warm.basis = a, highs.getBasis()
        if status != HighsModelStatus.kInfeasible and (x is None or _fractional(x[integer]).any()):
            del highs  # free the relaxation's solver first: it holds megabytes at fleet scale
            sub, live = compact(model)
            highs = _scipy_milp(sub, max(deadline - time.perf_counter(), 0.0), gap_tol)
            status, info, x = highs.getModelStatus(), highs.getInfo(), None
            if status == HighsModelStatus.kOptimal or (
                    status in _LIMITS and info.primal_solution_status == kSolutionStatusFeasible):
                gap = info.mip_gap
                x = model.lb.copy()  # every column left out is fixed at its lb
                x[live] = highs.getSolution().col_value
        message = highs.modelStatusToString(status)
    except Exception as exc:  # backend failure
        return SolveResult("error", None, None, np.inf, f"backend failure: {exc}")

    if status == HighsModelStatus.kInfeasible:
        return SolveResult("infeasible", None, None, np.inf, message)
    if x is None:
        return SolveResult("error", None, None, np.inf, message)

    far = _fractional(x[integer])
    if far.any():
        vid = int(np.flatnonzero(integer)[np.argmax(far)])
        return SolveResult(
            "error", None, None, np.inf,
            f"integer column {vid} at {x[vid]} is not integral",
        )
    x[integer] = np.round(x[integer]) + 0.0  # + 0.0 turns -0.0 into 0.0
    objective = float(c @ x + model.constant)

    if status == HighsModelStatus.kOptimal:
        return SolveResult("optimal", x, objective, gap, message)
    return SolveResult("feasible-gap", x, objective, gap, message)


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
