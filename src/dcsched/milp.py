"""Thin mixed-integer linear programming layer over the HiGHS solver that
scipy bundles (``scipy.optimize._highspy._core._Highs``), loaded from its
file: neither ``scipy.optimize`` nor ``scipy.sparse`` is imported.

A :class:`MilpModel` is the arrays HiGHS takes: the objective, column
bounds and integrality, and a column-wise constraint matrix
(:class:`CscMatrix`) with row bounds. The stage and offline builders fill
them by index arithmetic, and :func:`solve` passes them to HiGHS as they
are, the matrix's own arrays included. Per-column and per-row records are
read-only views derived on demand. Keeping the model data separate from the
backend lets tests check a solution against the model and solve the same
model by other means.

:func:`solve` solves the LP relaxation first and runs branch-and-bound only
when the relaxation's optimal vertex is fractional: an integral optimal
vertex is already a MILP optimum, and an infeasible relaxation already
proves the MILP infeasible. Before full branch-and-bound, a caller may have
it search the relaxation's neighbourhood (RENS; Berthold, "RENS — the
optimal rounding", Math. Prog. Comp. 6, 2014): the small MILP in which each
column it names may only take the floor or the ceiling of its LP value.
A branch-and-bound run's solution is the feasible one HiGHS holds, if any,
whatever status it stopped at. A neighbourhood solution within the gap
tolerance of the LP bound is a MILP optimum to that tolerance; one that is
not hands itself to full branch-and-bound as the starting incumbent. Every
run goes through the one module binding ``_scipy_milp``: the relaxation as
the model with no integer column, branch-and-bound on the model
:func:`compact` leaves (no fixed columns, no free or emptied rows).
:func:`solve` reads HiGHS's model status, solution, basis and gap from the
finished run. Branch-and-bound runs without HiGHS's Feasibility Jump
heuristic, which took about a quarter of its time on the desk grid's stage
models. A run given a starting incumbent also runs without HiGHS's
sub-MIP searches for one (RENS, RINS and root reduced-cost fixing), which
repeated the neighbourhood's search and took over a third of the time of
the desk grid's seeded runs; it still proves the gap tolerance.

Every relaxation runs in one HiGHS object kept per thread, made on the
thread's first relaxation. Each run resets its options and passes its
model and basis anew, so HiGHS receives what a new object would; what is
kept is the solver's workspace, which a new object allocates, and the
kernel zero-fills, every hour. A fractional relaxation releases the object
before the neighbourhood and branch-and-bound run; each of those runs in a
new object, freed with the run, so a fallback holds one solver at a time.
HiGHS's run clock adds up over an object's runs and its time limit is read
on that clock, so each run's limit is set past the clock's reading.

:func:`solve` returns the basis of every optimal relaxation it solves
(:func:`_read_basis`) and may start a relaxation from a given basis, so a
caller that solves a sequence of like models can start each from the one
before. HiGHS's dual simplex re-optimizes from such a basis in so few
iterations that a hot relaxation's cost is HiGHS's set-up, not its pivots:
the hot run therefore uses Devex pricing and leaves the LP unscaled, where
a cold relaxation and branch-and-bound keep HiGHS's defaults. A basis is
HiGHS's status of each column and row, two int8 arrays read back from the
basic variables and the solution, not from the lists of `getBasis()`, whose
thousands of Python enum objects cost more than the pivots they save.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np


def _load_highs():
    """scipy's HiGHS binding, loaded from its file without importing
    `scipy.optimize` (and with it `scipy.sparse`), which would take most of
    dcsched's import time. The module is the one `scipy.optimize` would load,
    under the same name: whichever comes first registers it in `sys.modules`
    and the other reuses it, so both see the very same types."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("dcsched needs scipy for its HiGHS binding", name=name)
    path = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy",
                        "_core" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's HiGHS binding is not at {path}", name=name, path=path)
    spec = importlib.util.spec_from_file_location(
        name, path, loader=importlib.machinery.ExtensionFileLoader(name, path))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_core = _load_highs()
HighsBasis = _core.HighsBasis
HighsBasisStatus = _core.HighsBasisStatus
HighsModelStatus = _core.HighsModelStatus
HighsStatus = _core.HighsStatus
MatrixFormat = _core.MatrixFormat
ObjSense = _core.ObjSense
_Highs = _core._Highs
kSolutionStatusFeasible = _core.kSolutionStatusFeasible

# each thread's relaxation object, `_kept.highs`, made on its first relaxation
_kept = threading.local()
# HiGHS's basis status values, as the int8 arrays of a basis hold them
LOWER, BASIC, UPPER, ZERO = (int(HighsBasisStatus.kLower), int(HighsBasisStatus.kBasic),
                             int(HighsBasisStatus.kUpper), int(HighsBasisStatus.kZero))
_STATUSES = tuple(sorted(HighsBasisStatus.__members__.values(), key=int))  # by value
INT_TOL = 1e-4  # largest distance from an integer HiGHS may leave an integer variable
# the options of a relaxation started from a basis: Devex pricing, no scaling
_HOT = [("simplex_dual_edge_weight_strategy", 1), ("simplex_scale_strategy", 0)]
# the option of every branch-and-bound run: no Feasibility Jump heuristic
_BNB = [("mip_heuristic_run_feasibility_jump", False)]
# the options of a branch-and-bound run given a starting incumbent: none of
# HiGHS's sub-MIP searches for one (RENS, RINS, root reduced-cost fixing)
_SEEDED = [("mip_heuristic_run_rens", False), ("mip_heuristic_run_rins", False),
           ("mip_heuristic_run_root_reduced_cost", False)]


class Variable(NamedTuple):
    kind: str  # "integer" | "continuous"
    lb: float
    ub: float


class Constraint(NamedTuple):
    coeffs: dict[int, float]  # column -> coefficient
    sense: str  # "<=" | "=" | ">="
    rhs: float


@dataclass(frozen=True, eq=False)
class CscMatrix:
    """A sparse matrix as the column-wise (CSC) arrays HiGHS takes: the
    entries of column j are data[indptr[j]:indptr[j + 1]], in rows
    indices[indptr[j]:indptr[j + 1]]. :func:`csc` builds one canonical:
    each column's rows sorted, no row twice. The index arrays are int32,
    HiGHS's index type."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def entry_columns(self) -> np.ndarray:
        """The column of each entry, in entry order."""
        return np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))

    def columns(self, keep: np.ndarray) -> CscMatrix:
        """The matrix of the columns `keep`, in that order."""
        start, count = self.indptr[keep], np.diff(self.indptr)[keep]
        end = np.cumsum(count)
        take = np.arange(end[-1] if len(end) else 0) + np.repeat(start - end + count, count)
        return CscMatrix(np.concatenate([[0], end]).astype(np.int32), self.indices[take],
                         self.data[take], (self.shape[0], len(keep)))

    def rows(self, keep: np.ndarray) -> CscMatrix:
        """The matrix of the rows `keep`, an increasing array of row indices."""
        new = np.full(self.shape[0], -1, dtype=np.int32)
        new[keep] = np.arange(len(keep))
        row = new[self.indices]
        kept = row >= 0
        indptr = np.concatenate([[0], np.cumsum(kept)])[self.indptr].astype(np.int32)
        return CscMatrix(indptr, row[kept], self.data[kept], (len(keep), self.shape[1]))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # entry by entry, column by column: the order of scipy's product, so
        # the sums are the same to the bit
        return np.bincount(self.indices, weights=self.data * x[self.entry_columns()],
                           minlength=self.shape[0])


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Maximize c @ x + constant subject to lo <= a @ x <= hi and
    lb <= x <= ub, with x[j] integer where integer[j]. HiGHS receives these
    arrays as they are, c negated, and `a` as its column-wise arrays."""

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray  # bool per column
    a: CscMatrix
    lo: np.ndarray
    hi: np.ndarray
    constant: float = 0.0

    def __post_init__(self) -> None:
        # HiGHS is told the arrays are column-wise; any other matrix would
        # pose another model, or none, without an error
        if not isinstance(self.a, CscMatrix):
            raise TypeError("the constraint matrix must be a CSC record (CscMatrix), "
                            f"got {type(self.a).__name__}")

    @property
    def variables(self) -> tuple[Variable, ...]:
        """A read-only record per column, derived from the arrays."""
        return tuple(Variable("integer" if i else "continuous", lb, ub) for i, lb, ub
                     in zip(self.integer.tolist(), self.lb.tolist(), self.ub.tolist()))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """A read-only record per row, derived from the arrays."""
        a = self.a
        order = np.argsort(a.indices, kind="stable")  # by row, each row's columns in order
        cols, vals = a.entry_columns()[order].tolist(), a.data[order].tolist()
        ptr = [0, *np.cumsum(np.bincount(a.indices, minlength=a.shape[0])).tolist()]
        return tuple(
            Constraint(dict(zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]])),
                       "=" if lo == hi else ">=" if hi == np.inf else "<=",
                       hi if hi < np.inf else lo)
            for i, (lo, hi) in enumerate(zip(self.lo.tolist(), self.hi.tolist()))
        )


def csc(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
        shape: tuple[int, int]) -> CscMatrix:
    """The matrix holding each block of (row, column, value) entries, in
    canonical CSC form: each column's rows sorted, whatever the entry order.
    An entry with the value 0 is kept. An entry outside the matrix, or a
    second one at a place, is a builder's error and raises ValueError."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if len(rows) and not (0 <= rows.min() and rows.max() < n_rows
                          and 0 <= cols.min() and cols.max() < n_cols):
        raise ValueError(f"an entry lies outside the {n_rows} x {n_cols} matrix")
    # by column, then row
    place = np.asarray(cols, dtype=np.int64) * n_rows + rows
    order = np.argsort(place, kind="stable")
    place, rows, vals = place[order], rows[order], np.asarray(vals[order], dtype=np.float64)
    same = np.diff(place) == 0
    if same.any():
        col, row = divmod(int(place[same.argmax()]), n_rows)
        raise ValueError(f"two entries at row {row}, column {col} of the {n_rows} x {n_cols} matrix")
    indptr = np.searchsorted(place, np.arange(n_cols + 1) * n_rows)
    return CscMatrix(indptr.astype(np.int32), rows.astype(np.int32), vals, (n_rows, n_cols))


@dataclass
class SolveResult:
    status: str  # "optimal" | "feasible-gap" | "infeasible" | "error"
    values: np.ndarray | None
    objective: float | None
    gap: float
    message: str = ""
    # the relaxation's optimal basis (column, row statuses); None if it was not optimal
    basis: tuple[np.ndarray, np.ndarray] | None = None


def _scipy_milp(model: MilpModel, time_limit: float, gap_tol: float,
                basis: tuple[np.ndarray, np.ndarray] | None = None,
                start: np.ndarray | None = None) -> _Highs:
    """Run scipy's bundled HiGHS on `model`, minimizing -c @ x, to relative
    gap `gap_tol` within `time_limit` seconds, from `basis` (the status of
    each column and row) when one is given and with the column values
    `start` as the starting incumbent of branch-and-bound when they are;
    return the finished run to read status, solution and info from.

    Every HiGHS call dcsched makes goes through here: the relaxation (a
    model with no integer column) as well as branch-and-bound, the
    neighbourhood search included. perfbench traces the solver by wrapping
    this name. A relaxation runs in this thread's kept object (`_kept`),
    made on first use, its options reset; branch-and-bound runs in a new
    one. The time limit is set on HiGHS's run clock, which adds up over
    the object's runs: `time_limit` seconds past its reading.

    A hot relaxation (one given a basis) re-optimizes in a dozen or so dual
    simplex iterations, so its cost is set-up, not pivoting: with HiGHS's
    defaults it re-scales the LP and computes exact dual steepest-edge
    weights for the basis before the first pivot. The hot run skips both
    (`_HOT`: Devex pricing, no scaling); a cold relaxation, which pivots
    for far longer, keeps the defaults. Branch-and-bound keeps them too,
    but for Feasibility Jump (`_BNB`), and, given `start`, but for the
    sub-MIP heuristics that search for an incumbent (`_SEEDED`: RENS, RINS,
    root reduced-cost fixing). A basis goes to HiGHS as it is, never as
    alien for HiGHS to complete: each basis dcsched passes is square. Any
    option, model, basis or start HiGHS refuses (a start or a basis of the
    wrong length, a basis with more or fewer basic entries than rows, say)
    raises, so no run silently falls back to a default.
    """
    mip = model.integer.any()
    if mip:
        highs = _Highs()
    else:
        highs = getattr(_kept, "highs", None)
        if highs is None:
            highs = _kept.highs = _Highs()
        _check(highs.resetOptions(), "the reset of its options")
    time_limit = float(time_limit)
    # a negative limit goes as it is, for HiGHS to refuse
    clock = highs.getRunTime() if time_limit >= 0 else 0.0
    options = [("output_flag", False), ("time_limit", clock + time_limit),
               ("mip_rel_gap", float(gap_tol))]
    options += _HOT if basis is not None else _BNB if mip else []
    options += _SEEDED if start is not None else []
    for name, value in options:
        _check(highs.setOptionValue(name, value), f"option {name} = {value!r}")
    a = model.a
    _check(highs.passModel(len(model.c), a.shape[0], len(a.data), MatrixFormat.kColwise,
                           ObjSense.kMinimize, 0.0, -model.c, model.lb, model.ub, model.lo,
                           model.hi, a.indptr, a.indices, a.data, model.integer.astype(np.int32)),
           "the model")
    if basis is not None:
        col, row = basis
        given = HighsBasis()
        given.col_status = [_STATUSES[s] for s in col.tolist()]
        given.row_status = [_STATUSES[s] for s in row.tolist()]
        given.alien = False
        _check(highs.setBasis(given), "the starting basis")
    if start is not None:
        solution = _core.HighsSolution()
        solution.col_value, solution.value_valid = start, True
        _check(highs.setSolution(solution), "the starting solution")
    highs.run()
    return highs


def solver_version() -> str:
    """The solver every run uses: HiGHS's version and the scipy that
    bundles it."""
    from importlib import metadata  # ~25 ms to import: kept off dcsched's import

    return f"HiGHS {_Highs().version()} from scipy {metadata.version('scipy')}"


def _check(status: HighsStatus, what: str) -> None:
    """Raise if HiGHS refused `what`."""
    if status == HighsStatus.kError:
        raise ValueError(f"HiGHS refused {what}")


def solve(model: MilpModel, gap_tol: float = 1e-4, time_limit: float = 60.0,
          basis: tuple[np.ndarray, np.ndarray] | None = None,
          rounded: np.ndarray | None = None) -> SolveResult:
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
    MILP (:func:`compact`) to relative gap `gap_tol`, starting from the
    neighbourhood's solution as its incumbent when there is one, without
    HiGHS's own sub-MIP searches for one; the fixed columns are put back in
    its solution. `time_limit` bounds all the runs of one call together. A
    neighbourhood stopped at a limit keeps its solution as if it had finished;
    full branch-and-bound stopped at a limit with an incumbent returns it as
    `feasible-gap`. Full branch-and-bound's gap is the smaller of the one
    HiGHS reports and the one to the LP bound (:func:`_lp_gap`), so a run
    that stops holding only its start still reports a finite gap.

    The relaxation starts from `basis` (the status of each column and row)
    when one is given. The result holds the relaxation's own basis when the
    relaxation is optimal (:func:`_read_basis`), whatever the MILP's status.
    The relaxation runs in the object this thread keeps for relaxations
    (:func:`_scipy_milp`). One that leaves branching to do releases it
    first, as the object holds megabytes at fleet scale: the neighbourhood
    and branch-and-bound each run in a new object, and the next relaxation
    makes the kept one anew. Each run's time limit is set on HiGHS's run
    clock, which adds up over the kept object's runs, past its reading.

    Integer variables in the returned values are rounded to the nearest
    integer; one further than INT_TOL from it is reported as an error.
    So is an option value (such as a negative `time_limit` or `gap_tol`),
    a model, a basis or a starting solution that HiGHS refuses; the message
    names it.
    """
    deadline = time.perf_counter() + time_limit
    c, integer, lp_basis = model.c, model.integer, None
    try:
        highs = _scipy_milp(replace(model, integer=np.zeros_like(integer)), time_limit, gap_tol,
                            basis)
        status, gap, x = highs.getModelStatus(), 0.0, None
        message = highs.modelStatusToString(status)
        if status == HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            x = _floats(solution.col_value)
            lp_basis = _read_basis(highs, solution, model, x)
        if status != HighsModelStatus.kInfeasible and (x is None or _fractional(x[integer]).any()):
            _kept.highs = highs = None  # release the relaxation's object first
            x_lp, found = x, None
            if x_lp is not None and rounded is not None:
                found = _neighbourhood(model, x_lp, rounded, deadline, gap_tol)
            if found is not None and found[1] <= gap_tol:
                x, gap = found
            else:
                start = None if found is None else found[0]
                highs, x = _branch_and_bound(model, deadline, gap_tol, start=start)
                status = highs.getModelStatus()
                message = highs.modelStatusToString(status)
                if x is not None:
                    gap = highs.getInfo().mip_gap
                    if x_lp is not None:
                        gap = min(gap, _lp_gap(model, x, x_lp))
    except Exception as exc:  # backend failure
        return SolveResult("error", None, None, np.inf, f"backend failure: {exc}", lp_basis)

    if status == HighsModelStatus.kInfeasible:
        return SolveResult("infeasible", None, None, np.inf, message, lp_basis)
    if x is None:
        return SolveResult("error", None, None, np.inf, message, lp_basis)

    far = _fractional(x[integer])
    if far.any():
        vid = int(np.flatnonzero(integer)[np.argmax(far)])
        return SolveResult("error", None, None, np.inf,
                           f"integer column {vid} at {x[vid]} is not integral", lp_basis)
    x[integer] = np.round(x[integer]) + 0.0  # + 0.0 turns -0.0 into 0.0
    return SolveResult("optimal" if status == HighsModelStatus.kOptimal else "feasible-gap", x,
                       float(c @ x + model.constant), gap, message, lp_basis)


def _neighbourhood(model: MilpModel, x_lp: np.ndarray, rounded: np.ndarray, deadline: float,
                   gap_tol: float) -> tuple[np.ndarray, float] | None:
    """Solve the neighbourhood of the fractional relaxation optimum `x_lp`:
    `model` with each column in the mask `rounded` bounded to the floor and
    ceiling of its LP value, so one the LP left integral is fixed. Return
    the solution HiGHS holds when it stops (at a limit too) and its gap, or
    None if it holds none.

    The gap is the one HiGHS reports as `mip_gap`, |primal - bound| /
    |primal|, with the neighbourhood optimum as the primal value and the LP
    optimum as the bound, both on the objective that full branch-and-bound
    would see: c @ x over the columns of :func:`compact`, no constant.
    """
    lb = np.where(rounded, np.maximum(model.lb, np.floor(x_lp + INT_TOL)), model.lb)
    ub = np.where(rounded, np.minimum(model.ub, np.ceil(x_lp - INT_TOL)), model.ub)
    _, x = _branch_and_bound(replace(model, lb=lb, ub=ub), deadline, gap_tol)
    return None if x is None else (x, _lp_gap(model, x, x_lp))


def _lp_gap(model: MilpModel, x: np.ndarray, x_lp: np.ndarray) -> float:
    """The gap of the solution `x` to the LP optimum `x_lp` of `model`, as
    HiGHS reports `mip_gap`: |primal - bound| / |primal|, both on the
    objective branch-and-bound sees, c @ x over the columns of
    :func:`compact`, without the constant."""
    free = model.lb != model.ub
    primal, bound = float(model.c[free] @ x[free]), float(model.c[free] @ x_lp[free])
    return 0.0 if primal == bound else abs(primal - bound) / abs(primal) if primal else np.inf


def _read_basis(highs: _Highs, solution, model: MilpModel,
                x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The status of each column and row of `model` in the optimal basis of
    the finished relaxation `highs`, whose `solution` gave the column
    values `x`: what `getBasis()` lists, without its enum objects.

    The basic entries are the ones `getBasicVariables()` names. A nonbasic
    entry sits at the bound its value is nearer to, and a free one is Zero;
    at equal bounds the dual decides: a fixed column is Upper when its dual
    is negative, an equality row when its dual is positive."""
    n = len(x)
    status = np.concatenate([
        _at_bound(x, model.lb, model.ub, _floats(solution.col_dual) < 0),
        _at_bound(_floats(solution.row_value), model.lo, model.hi,
                  _floats(solution.row_dual) > 0)])
    basic = highs.getBasicVariables()[1]
    status[np.where(basic >= 0, basic, n - 1 - basic)] = BASIC
    return status[:n], status[n:]


def _floats(values: list[float]) -> np.ndarray:
    """A list HiGHS hands back as an array; `fromiter` skips the type
    inference `np.array` makes on every entry."""
    return np.fromiter(values, float, len(values))


def _at_bound(value: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              upper_if_fixed: np.ndarray) -> np.ndarray:
    """The nonbasic status of each entry of `value` within [lo, hi]."""
    status = np.where(np.abs(value - lo) <= np.abs(value - hi), LOWER, UPPER).astype(np.int8)
    status[lo == hi] = np.where(upper_if_fixed[lo == hi], UPPER, LOWER)
    status[(lo == -np.inf) & (hi == np.inf)] = ZERO
    return status


def _branch_and_bound(model: MilpModel, deadline: float, gap_tol: float,
                      start: np.ndarray | None = None) -> tuple[_Highs, np.ndarray | None]:
    """Run branch-and-bound on `model` compacted (:func:`compact`), within
    what is left until `deadline`, from the starting incumbent `start` (a
    solution of `model`) when one is given. Return the finished run and its
    solution with every column left out put back at its lb; the solution is
    None unless the run holds a feasible one, whether it proved it optimal
    or stopped at a limit."""
    sub, live = compact(model)
    highs = _scipy_milp(sub, max(deadline - time.perf_counter(), 0.0), gap_tol,
                        start=None if start is None else start[live])
    if highs.getInfo().primal_solution_status != kSolutionStatusFeasible:
        return highs, None
    x = model.lb.copy()
    x[live] = highs.getSolution().col_value
    return highs, x


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
    a = model.a.columns(live)
    empty = np.bincount(a.indices, minlength=a.shape[0]) == 0
    rows = np.flatnonzero(~((lo == -np.inf) & (hi == np.inf)) & ~(empty & (lo <= 0) & (hi >= 0)))
    return MilpModel(model.c[live], model.lb[live], model.ub[live], model.integer[live],
                     a.rows(rows), lo[rows], hi[rows], model.constant + float(model.c @ x0)), live


def _fractional(x: np.ndarray) -> np.ndarray:
    """Mask of the entries of `x` further than INT_TOL from an integer."""
    return np.abs(x - np.round(x)) > INT_TOL

