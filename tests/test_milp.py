import numpy as np
import pytest
from scipy.optimize import milp as scipy_milp

from dcsched.milp import MilpModel, check_feasible, solve
from dcsched.stage import build_stage, solve_stage, validate_decision
from test_stage import random_stage


def test_simple_bounded_maximum():
    model = MilpModel()
    x = model.add_var("x", "integer", 0, None)
    model.add_constraint({x: 1.0}, "<=", 5, "ub")
    model.set_objective({x: 1.0})
    res = solve(model)
    assert res.status == "optimal"
    assert res.value(x) == 5
    assert res.objective == pytest.approx(5.0)


def test_two_variable_budget():
    model = MilpModel()
    x = model.add_var("x", "integer", 0, 3)
    y = model.add_var("y", "integer", 0, 3)
    model.add_constraint({x: 1.0, y: 1.0}, "<=", 3, "budget")
    model.set_objective({x: 1.0, y: 1.0})
    res = solve(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)


def test_empty_feasible_region(highs_calls):
    model = MilpModel()
    x = model.add_var("x", "continuous", lb=-100, ub=100)
    model.add_constraint({x: 1.0}, "<=", 0, "lo")
    model.add_constraint({x: 1.0}, ">=", 1, "hi")
    model.set_objective({x: 1.0})
    assert solve(model).status == "infeasible"
    # one HiGHS call: the infeasible relaxation proves the model infeasible
    assert highs_calls == ["LP"]


def test_integral_relaxation_is_returned_without_branching(highs_calls):
    model = MilpModel()
    x = model.add_var("x", "integer", 0, None)
    y = model.add_var("y", "integer", 0, None)
    model.add_constraint({x: 1.0, y: 1.0}, "<=", 4, "budget")
    model.add_constraint({x: 1.0}, "<=", 3, "x_cap")
    model.set_objective({x: 2.0, y: 1.0})
    res = solve(model)
    assert res.status == "optimal"
    assert res.gap == 0
    assert (res.value(x), res.value(y)) == (3, 1)
    assert highs_calls == ["LP"]


def test_optimal_solution_satisfies_all_constraints():
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = MilpModel()
        vids = [model.add_var(f"x{i}", "integer", 0, 10) for i in range(4)]
        for j in range(5):
            coeffs = {v: float(rng.integers(1, 4)) for v in vids}
            model.add_constraint(coeffs, "<=", float(rng.integers(5, 30)), f"c{j}")
        model.set_objective({v: float(rng.integers(1, 5)) for v in vids})
        res = solve(model)
        assert res.status == "optimal"
        assert check_feasible(model, res.values) == []


def test_integer_values_are_integral(highs_calls):
    model = MilpModel()
    x = model.add_var("x", "integer", 0, None)
    model.add_constraint({x: 2.0}, "<=", 7, "odd")
    model.set_objective({x: 1.0})
    res = solve(model)
    assert res.value(x) == 3
    # the relaxation stops at x = 3.5, so branch-and-bound runs
    assert highs_calls == ["LP", "MILP"]


def branch_and_bound(model, gap_tol):
    """Objective of `model` from one HiGHS branch-and-bound call, or None
    if it is infeasible: the reference for the LP-first path."""
    n = len(model.variables)
    c = np.zeros(n)
    for vid, coef in model.objective.items():
        c[vid] = coef
    a = np.zeros((len(model.constraints), n))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for i, con in enumerate(model.constraints):
        for vid, coef in con.coeffs.items():
            a[i, vid] = coef
        if con.sense in ("<=", "="):
            hi[i] = con.rhs
        if con.sense in (">=", "="):
            lo[i] = con.rhs
    res = scipy_milp(
        c=-c,
        constraints=(a, lo, hi),
        integrality=[v.kind == "integer" for v in model.variables],
        bounds=([v.lb for v in model.variables], [v.ub for v in model.variables]),
        options={"mip_rel_gap": gap_tol},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(-res.fun + model.objective_constant)


def test_lp_first_matches_branch_and_bound_on_random_stages(highs_calls):
    gap_tol = 1e-4
    paths = {"LP": 0, "MILP": 0}
    for seed in range(40):
        inputs = random_stage(seed)
        for with_slack in (False, True):
            model, _ = build_stage(inputs, with_slack=with_slack)
            highs_calls.clear()
            res = solve(model, gap_tol=gap_tol)
            reference = branch_and_bound(model, gap_tol)
            if reference is None:
                assert res.status == "infeasible"
                continue
            paths[highs_calls[-1]] += 1
            assert res.status == "optimal"
            assert check_feasible(model, res.values) == []
            assert res.objective == pytest.approx(reference, rel=gap_tol, abs=1e-6)
        decision = solve_stage(inputs, gap_tol=gap_tol)
        assert validate_decision(inputs, decision) == []
    # feasible models take both paths: accepted relaxations and fallbacks
    assert all(paths.values()), paths


def test_objective_constant_is_reported():
    model = MilpModel()
    x = model.add_var("x", "integer", 0, 2)
    model.set_objective({x: 1.0}, constant=-10.0)
    res = solve(model)
    assert res.objective == pytest.approx(-8.0)


def test_unknown_variable_reference_rejected():
    model = MilpModel()
    model.add_var("x")
    with pytest.raises(ValueError):
        model.add_constraint({3: 1.0}, "<=", 1)
