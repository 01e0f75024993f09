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
proves the MILP infeasible. Before full branch-and-bound, a caller may have
it search the relaxation's neighbourhood (RENS; Berthold, "RENS — the
optimal rounding", Math. Prog. Comp. 6, 2014): the small MILP in which each
column it names may only take the floor or the ceiling of its LP value.
A neighbourhood optimum within the gap tolerance of the LP bound is a MILP
optimum to that tolerance. Every run goes through the one module binding
``_scipy_milp``: the relaxation as the model with no integer column,
branch-and-bound on the model :func:`compact` leaves (no fixed columns, no
free or emptied rows). :func:`solve` reads HiGHS's model status, solution,
basis and gap from the finished run. Branch-and-bound runs without HiGHS's
Feasibility Jump heuristic, which took about a quarter of its time on the
desk grid's stage models.

A receding-horizon run solves one relaxation an hour, and from hour to
hour only the right-hand sides, the bounds and the objective move: the
stage builder keeps the matrix the same. A :class:`WarmStart` carried
through the run lets each relaxation start from the previous hour's
optimal basis, so HiGHS's dual simplex re-optimizes in a few iterations
instead of solving from scratch. So few (about a dozen at fleet scale)
that such a hot relaxation's cost is HiGHS's set-up, not its pivots: the
hot run therefore uses Devex pricing and leaves the LP unscaled, where a
cold relaxation and branch-and-bound keep HiGHS's defaults, and the shared
read-only matrix is turned column-wise once, not once per hour.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import (
    HighsBasis,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
    kSolutionStatusFeasible,
)

INT_TOL = 1e-4  # largest distance from an integer HiGHS may leave an integer variable
# the limits at which a branch-and-bound run may stop holding a feasible incumbent
_LIMITS = (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit,
           HighsModelStatus.kSolutionLimit)
# the options of a relaxation started from a basis: Devex pricing, no scaling
_HOT = [("simplex_dual_edge_weight_strategy", 1), ("simplex_scale_strategy", 0)]
# the option of every branch-and-bound run: no Feasibility Jump heuristic
_BNB = [("mip_heuristic_run_feasibility_jump", False)]


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
    model with no integer column) as well as branch-and-bound, the
    neighbourhood search included. perfbench traces the solver by wrapping
    this name.

    A hot relaxation (one given a basis) re-optimizes in a dozen or so dual
    simplex iterations, so its cost is set-up, not pivoting: with HiGHS's
    defaults it re-scales the LP and computes exact dual steepest-edge
    weights for the basis before the first pivot. The hot run skips both
    (`_HOT`: Devex pricing, no scaling); a cold relaxation, which pivots
    for far longer, keeps the defaults. Branch-and-bound keeps them too,
    but for Feasibility Jump (`_BNB`). Any option, model or basis HiGHS
    refuses raises, so no run silently falls back to a default.
    """
    highs = _Highs()
    options = [("output_flag", False), ("time_limit", float(time_limit)),
               ("mip_rel_gap", float(gap_tol))]
    options += _HOT if basis is not None else _BNB if model.integer.any() else []
    for name, value in options:
        _check(highs.setOptionValue(name, value), f"option {name} = {value!r}")
    indptr, indices, data = _colwise(model.a)
    _check(highs.passModel(len(model.c), model.a.shape[0], len(data), MatrixFormat.kColwise,
                           ObjSense.kMinimize, 0.0, -model.c, model.lb, model.ub, model.lo,
                           model.hi, indptr, indices, data, model.integer.astype(np.int32)),
           "the model")
    if basis is not None:
        _check(highs.setBasis(basis), "the starting basis")
    highs.run()
    return highs


def _check(status: HighsStatus, what: str) -> None:
    """Raise if HiGHS refused `what`."""
    if status == HighsStatus.kError:
        raise ValueError(f"HiGHS refused {what}")


# column-wise arrays of the read-only matrices still alive, by id
_COLWISE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _colwise(a: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`a` in column-wise form: (indptr, indices, data). A read-only matrix,
    which the stages of a run share, is converted once and its arrays kept
    for as long as it lives; a writable one, which could change in place,
    is converted on every call."""
    hit = _COLWISE.get(id(a))
    if hit is None:
        csc = a.tocsc()
        hit = csc.indptr, csc.indices, csc.data
        if not any(part.flags.writeable for part in (a.indptr, a.indices, a.data)):
            for part in hit:
                part.flags.writeable = False
            _COLWISE[id(a)] = hit
            weakref.finalize(a, _COLWISE.pop, id(a))
    return hit


def solve(model: MilpModel, gap_tol: float = 1e-4, time_limit: float = 60.0,
          warm: WarmStart | None = None, rounded: np.ndarray | None = None) -> SolveResult:
    """Maximize `model`: the LP relaxation first, branch-and-bound only when
    it is fractional.

    HiGHS solves the relaxation with simplex, so its solution is a vertex.
    If every integer variable sits within INT_TOL of an integer there, that
    vertex is optimal for the MILP too and is returned as `optimal` with gap
    0; an infeasible relaxation proves the MILP infeasible.

    Otherwise, when `rounded` masks the columns to round, the relaxation's
    neighbourhood is searched first (:func:`_neighbourhood`); an optimum
    there within `gap_tol` of the LP bound is returned as `optimal`, with
    that gap. Failing that, HiGHS branch-and-bound solves the compacted
    MILP (:func:`compact`) to relative gap `gap_tol`; the fixed columns are
    put back in its solution. `time_limit` bounds all the runs of one call
    together. A branch-and-bound run that stops at a limit with an
    incumbent returns it as `feasible-gap`, with the gap HiGHS reports.

    With `warm`, the relaxation starts from the stored basis when the
    constraint matrix is the one it was found on, and an optimal relaxation
    stores its basis there for the next call.

    Integer variables in the returned values are rounded to the nearest
    integer; one further than INT_TOL from it is reported as an error.
    So is an option value (such as a negative `time_limit` or `gap_tol`),
    a model or a basis that HiGHS refuses; the message names it.
    """
    deadline = time.perf_counter() + time_limit
    c, a, integer = model.c, model.a, model.integer
    try:
        basis = warm.basis_for(a) if warm is not None else None
        highs = _scipy_milp(replace(model, integer=np.zeros_like(integer)), time_limit, gap_tol,
                            basis)
        status, gap, x = highs.getModelStatus(), 0.0, None
        message = highs.modelStatusToString(status)
        if status == HighsModelStatus.kOptimal:
            x = np.array(highs.getSolution().col_value)
            if warm is not None:
                warm.matrix, warm.basis = a, highs.getBasis()
        if status != HighsModelStatus.kInfeasible and (x is None or _fractional(x[integer]).any()):
            del highs  # free the relaxation's solver first: it holds megabytes at fleet scale
            found = None
            if x is not None and rounded is not None:
                found = _neighbourhood(model, x, rounded, deadline, gap_tol)
            if found is not None:
                x, gap = found
            else:
                sub, live = compact(model)
                highs = _scipy_milp(sub, max(deadline - time.perf_counter(), 0.0), gap_tol)
                status, info, x = highs.getModelStatus(), highs.getInfo(), None
                message = highs.modelStatusToString(status)
                if status == HighsModelStatus.kOptimal or (
                        status in _LIMITS and info.primal_solution_status == kSolutionStatusFeasible):
                    gap = info.mip_gap
                    x = model.lb.copy()  # every column left out is fixed at its lb
                    x[live] = highs.getSolution().col_value
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


def _neighbourhood(model: MilpModel, x_lp: np.ndarray, rounded: np.ndarray, deadline: float,
                   gap_tol: float) -> tuple[np.ndarray, float] | None:
    """Solve the neighbourhood of the fractional relaxation optimum `x_lp`:
    `model` with each column in the mask `rounded` bounded to the floor and
    ceiling of its LP value, so one the LP left integral is fixed. Return
    the solution and its gap if that gap is within `gap_tol`, else None.

    The gap is the one HiGHS reports as `mip_gap`, |primal - bound| /
    |primal|, with the neighbourhood optimum as the primal value and the LP
    optimum as the bound, both on the objective that full branch-and-bound
    would see: c @ x over the columns of :func:`compact`, no constant.
    """
    lb = np.where(rounded, np.maximum(model.lb, np.floor(x_lp + INT_TOL)), model.lb)
    ub = np.where(rounded, np.minimum(model.ub, np.ceil(x_lp - INT_TOL)), model.ub)
    sub, live = compact(replace(model, lb=lb, ub=ub))
    highs = _scipy_milp(sub, max(deadline - time.perf_counter(), 0.0), gap_tol)
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        return None
    x = lb.copy()
    x[live] = highs.getSolution().col_value
    free = model.lb != model.ub
    primal, bound = float(model.c[free] @ x[free]), float(model.c[free] @ x_lp[free])
    gap = 0.0 if primal == bound else abs(primal - bound) / abs(primal) if primal else np.inf
    return (x, gap) if gap <= gap_tol else None


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
