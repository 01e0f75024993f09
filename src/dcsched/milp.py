"""Thin mixed-integer linear programming layer over scipy's HiGHS backend.

Models are built incrementally (variables, linear constraints, one linear
objective) and handed to :func:`solve`. Keeping the model data separate from
the backend lets tests substitute exhaustive oracles for the same model.

:func:`solve` solves the LP relaxation first and runs branch-and-bound only
when the relaxation's optimal vertex is fractional: an integral optimal
vertex is already a MILP optimum, and an infeasible relaxation already
proves the MILP infeasible. The relaxation goes through the module binding
``_highs_lp``, branch-and-bound through ``_scipy_milp``.

A receding-horizon run solves one relaxation an hour, and in steady hours
only the right-hand sides, the bounds and the objective move: the matrix is
the same. A :class:`WarmStart` carried through the run lets each relaxation
start from the previous hour's optimal basis, so HiGHS's dual simplex
re-optimizes in a few iterations instead of solving from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

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

SENSES = ("<=", "=", ">=")


@dataclass
class _Variable:
    name: str
    kind: str  # "integer" | "continuous"
    lb: float
    ub: float


@dataclass
class _Constraint:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str


@dataclass
class MilpModel:
    """A linear model with integer/continuous variables and one linear
    objective, always maximized."""

    variables: list[_Variable] = field(default_factory=list)
    constraints: list[_Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    objective_constant: float = 0.0

    def add_var(self, name: str, kind: str = "integer",
                lb: float = 0.0, ub: float | None = None) -> int:
        if kind not in ("integer", "continuous"):
            raise ValueError(f"unknown variable kind {kind!r}")
        hi = np.inf if ub is None else float(ub)
        if lb > hi:
            raise ValueError(f"variable {name}: lb {lb} > ub {hi}")
        self.variables.append(_Variable(name, kind, float(lb), hi))
        return len(self.variables) - 1

    def add_constraint(self, coeffs: Mapping[int, float], sense: str,
                       rhs: float, name: str = "") -> None:
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        for vid in coeffs:
            if not (0 <= vid < len(self.variables)):
                raise ValueError(f"constraint {name!r} references unknown variable {vid}")
        self.constraints.append(_Constraint(dict(coeffs), sense, float(rhs), name))

    def set_objective(self, coeffs: Mapping[int, float], constant: float = 0.0) -> None:
        for vid in coeffs:
            if not (0 <= vid < len(self.variables)):
                raise ValueError(f"objective references unknown variable {vid}")
        self.objective = dict(coeffs)
        self.objective_constant = float(constant)


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
    branch-and-bound solves the MILP to relative gap `gap_tol` in what is
    left of `time_limit`, which bounds both calls together.

    With `warm`, the relaxation starts from the stored basis when the
    constraint matrix is the one it was found on, and an optimal relaxation
    stores its basis there for the next call.

    Integer variables in the returned values are rounded to the nearest
    integer; one further than INT_TOL from it is reported as an error.
    """
    deadline = time.perf_counter() + time_limit
    n = len(model.variables)
    c = np.zeros(n)
    for vid, coef in model.objective.items():
        c[vid] = coef

    integer = np.array([v.kind == "integer" for v in model.variables], dtype=bool)
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])

    rows, cols, data = [], [], []
    lo = np.empty(len(model.constraints))
    hi = np.empty(len(model.constraints))
    for i, con in enumerate(model.constraints):
        for vid, coef in con.coeffs.items():
            rows.append(i)
            cols.append(vid)
            data.append(coef)
        if con.sense == "<=":
            lo[i], hi[i] = -np.inf, con.rhs
        elif con.sense == ">=":
            lo[i], hi[i] = con.rhs, np.inf
        else:
            lo[i] = hi[i] = con.rhs
    a = sparse.csr_matrix((data, (rows, cols)), shape=(len(model.constraints), n))

    try:
        basis = warm.basis_for(a) if warm is not None else None
        res = _highs_lp(-c, a, lo, hi, lb, ub, time_limit, basis)
        if warm is not None and res.status == 0:
            warm.matrix, warm.basis = a, res.basis
        settled = res.status == 2 or (res.status == 0 and not _fractional(res.x[integer]).any())
        if not settled:
            res = _scipy_milp(c=-c, constraints=LinearConstraint(a, lo, hi),
                              integrality=integer.astype(int),
                              bounds=Bounds(lb, ub), options={
                                  "disp": False,
                                  "mip_rel_gap": gap_tol,
                                  "time_limit": max(deadline - time.perf_counter(), 0.0),
                              })
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
            f"integer variable {model.variables[vid].name} at {values[vid]} is not integral",
        )
    values[integer] = np.round(values[integer]) + 0.0  # + 0.0 turns -0.0 into 0.0
    objective = float(c @ values + model.objective_constant)

    if res.status == 0:
        return SolveResult("optimal", values, objective, gap, res.message)
    return SolveResult("feasible-gap", values, objective, gap, res.message)


def _fractional(x: np.ndarray) -> np.ndarray:
    """Mask of the entries of `x` further than INT_TOL from an integer."""
    return np.abs(x - np.round(x)) > INT_TOL


def check_feasible(model: MilpModel, values: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Return descriptions of constraints/bounds violated by more than tol."""
    bad = []
    for vid, var in enumerate(model.variables):
        x = values[vid]
        if x < var.lb - tol or x > var.ub + tol:
            bad.append(f"variable {var.name} = {x} outside [{var.lb}, {var.ub}]")
    for con in model.constraints:
        lhs = sum(coef * values[vid] for vid, coef in con.coeffs.items())
        if con.sense == "<=" and lhs > con.rhs + tol:
            bad.append(f"{con.name or '<='}: {lhs} > {con.rhs}")
        elif con.sense == ">=" and lhs < con.rhs - tol:
            bad.append(f"{con.name or '>='}: {lhs} < {con.rhs}")
        elif con.sense == "=" and abs(lhs - con.rhs) > tol:
            bad.append(f"{con.name or '='}: {lhs} != {con.rhs}")
    return bad
