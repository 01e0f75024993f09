import numpy as np
import pytest
from scipy.optimize import milp as scipy_milp

import dcsched.milp
from dcsched.milp import MilpModel, WarmStart, check_feasible, solve
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


@pytest.fixture
def lp_bases(monkeypatch):
    """Record, for each relaxation solved through `dcsched.milp._highs_lp`,
    whether it was given a starting basis."""
    given = []
    highs_lp = dcsched.milp._highs_lp

    def recorded(*args, **kwargs):
        given.append(args[7] is not None)
        return highs_lp(*args, **kwargs)

    monkeypatch.setattr(dcsched.milp, "_highs_lp", recorded)
    return given


def budget_model(cap, rhs=4.0, extra_row=False):
    """max 2x + y s.t. x + y <= rhs, x <= cap: an integral relaxation whose
    matrix depends only on `extra_row`."""
    model = MilpModel()
    x = model.add_var("x", "integer", 0, None)
    y = model.add_var("y", "integer", 0, None)
    model.add_constraint({x: 1.0, y: 1.0}, "<=", rhs, "budget")
    model.add_constraint({x: 1.0}, "<=", cap, "x_cap")
    if extra_row:
        model.add_constraint({y: 1.0}, "<=", 10, "y_cap")
    model.set_objective({x: 2.0, y: 1.0})
    return model


def test_same_matrix_starts_from_the_stored_basis(lp_bases):
    warm = WarmStart()
    first = solve(budget_model(3), warm=warm)
    assert warm.basis is not None
    # only a right-hand side moved: the relaxation starts from the basis
    second = solve(budget_model(1), warm=warm)
    assert lp_bases == [False, True]
    assert (second.value(0), second.value(1)) == (1, 3)
    assert (first.value(0), first.value(1)) == (3, 1)


def test_changed_matrix_solves_cold(lp_bases):
    # one coefficient moved to the other column (only the indices differ),
    # one coefficient changed (only the data differ), one more column in
    # no row (only the shape differs), and one more row
    moved = budget_model(3)
    moved.constraints[1].coeffs = {1: 1.0}
    doubled = budget_model(3)
    doubled.constraints[1].coeffs = {0: 2.0}
    widened = budget_model(3)
    widened.add_var("z", "integer", 0, 1)
    grown = budget_model(3, extra_row=True)
    changed = ((moved, 8.0), (doubled, 5.0), (widened, 7.0), (grown, 7.0))
    for model, objective in changed:
        warm = WarmStart()
        solve(budget_model(3), warm=warm)
        assert solve(model, warm=warm).objective == pytest.approx(objective)
        # the changed model's basis is now the stored one
        assert warm.matrix.shape == (len(model.constraints), len(model.variables))
    assert lp_bases == [False] * 8


def test_infeasible_relaxation_keeps_the_stored_basis(lp_bases):
    warm = WarmStart()
    solve(budget_model(3), warm=warm)
    matrix, basis = warm.matrix, warm.basis
    assert solve(budget_model(3, rhs=-1.0), warm=warm).status == "infeasible"
    assert solve(budget_model(3, rhs=-1.0, extra_row=True), warm=warm).status == "infeasible"
    assert warm.matrix is matrix and warm.basis is basis
    assert lp_bases == [False, True, False]
    assert solve(budget_model(2), warm=warm).objective == pytest.approx(6.0)
    assert lp_bases[-1] is True
