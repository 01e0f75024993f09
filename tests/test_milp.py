import numpy as np
import pytest

import dcsched.milp
from dcsched.milp import MilpModel, check_feasible, solve


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


def test_empty_feasible_region(monkeypatch):
    calls = []
    highs = dcsched.milp._scipy_milp

    def counted(*args, **kwargs):
        calls.append(1)
        return highs(*args, **kwargs)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", counted)
    model = MilpModel()
    x = model.add_var("x", "continuous", lb=-100, ub=100)
    model.add_constraint({x: 1.0}, "<=", 0, "lo")
    model.add_constraint({x: 1.0}, ">=", 1, "hi")
    model.set_objective({x: 1.0})
    assert solve(model).status == "infeasible"
    # one HiGHS call: an infeasible verdict is not re-checked
    assert len(calls) == 1


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


def test_integer_values_are_integral():
    model = MilpModel()
    x = model.add_var("x", "integer", 0, None)
    model.add_constraint({x: 2.0}, "<=", 7, "odd")
    model.set_objective({x: 1.0})
    res = solve(model)
    assert res.value(x) == 3


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
