"""Thin mixed-integer linear programming layer over scipy's HiGHS backend.

Models are built incrementally (variables, linear constraints, one linear
objective) and handed to :func:`solve`. Keeping the model data separate from
the backend lets tests substitute exhaustive oracles for the same model.

:func:`solve` solves the LP relaxation first and runs branch-and-bound only
when the relaxation's optimal vertex is fractional: an integral optimal
vertex is already a MILP optimum, and an infeasible relaxation already
proves the MILP infeasible. Both calls go through the module binding
``_scipy_milp``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as _scipy_milp

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


def solve(model: MilpModel, gap_tol: float = 1e-4,
          time_limit: float = 60.0) -> SolveResult:
    """Maximize `model`: the LP relaxation first, branch-and-bound only when
    it is fractional.

    HiGHS solves the relaxation with simplex, so its solution is a vertex.
    If every integer variable sits within INT_TOL of an integer there, that
    vertex is optimal for the MILP too and is returned as `optimal` with gap
    0; an infeasible relaxation proves the MILP infeasible. Otherwise HiGHS
    branch-and-bound solves the MILP to relative gap `gap_tol` in what is
    left of `time_limit`, which bounds both calls together.

    Integer variables in the returned values are rounded to the nearest
    integer; one further than INT_TOL from it is reported as an error.
    """
    deadline = time.perf_counter() + time_limit
    n = len(model.variables)
    c = np.zeros(n)
    for vid, coef in model.objective.items():
        c[vid] = coef

    integer = np.array([v.kind == "integer" for v in model.variables], dtype=bool)
    bounds = Bounds(
        np.array([v.lb for v in model.variables]),
        np.array([v.ub for v in model.variables]),
    )

    constraints = []
    if model.constraints:
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
        constraints.append(LinearConstraint(a, lo, hi))

    def highs(integrality: np.ndarray, options: dict):
        return _scipy_milp(c=-c, constraints=constraints, integrality=integrality,
                           bounds=bounds, options={**options, "disp": False})

    try:
        res = highs(np.zeros(n), {"time_limit": time_limit})
        settled = res.status == 2 or (res.status == 0 and not _fractional(res.x[integer]).any())
        if not settled:
            res = highs(integer.astype(int), {
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
