import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import milp as scipy_milp

import dcsched.milp
from dcsched.milp import MilpModel, WarmStart, check_feasible, csr, solve
from dcsched.stage import build_stage, solve_stage, validate_decision
from test_stage import random_stage


def dense_model(objective, rows, lb=0.0, ub=np.inf, integer=True, constant=0.0):
    """max objective @ x + constant subject to `rows` of (dense
    coefficients, sense, rhs); lb, ub and integer hold for every column or
    give one value per column."""
    n = len(objective)
    senses = [sense for _, sense, _ in rows]
    rhs = np.array([rhs for _, _, rhs in rows], dtype=float)
    return MilpModel(
        c=np.array(objective, dtype=float),
        lb=np.broadcast_to(np.asarray(lb, dtype=float), n).copy(),
        ub=np.broadcast_to(np.asarray(ub, dtype=float), n).copy(),
        integer=np.broadcast_to(np.asarray(integer, dtype=bool), n).copy(),
        a=sparse.csr_matrix(np.array([coeffs for coeffs, _, _ in rows], dtype=float).reshape(-1, n)),
        lo=np.where([sense != "<=" for sense in senses], rhs, -np.inf),
        hi=np.where([sense != ">=" for sense in senses], rhs, np.inf),
        constant=constant,
    )


def test_simple_bounded_maximum():
    model = dense_model([1.0], [([1.0], "<=", 5)])
    res = solve(model)
    assert res.status == "optimal"
    assert res.value(0) == 5
    assert res.objective == pytest.approx(5.0)


def test_two_variable_budget():
    model = dense_model([1.0, 1.0], [([1.0, 1.0], "<=", 3)], ub=3)
    res = solve(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)


def test_empty_feasible_region(highs_calls):
    model = dense_model([1.0], [([1.0], "<=", 0), ([1.0], ">=", 1)],
                        lb=-100, ub=100, integer=False)
    assert solve(model).status == "infeasible"
    # one HiGHS call: the infeasible relaxation proves the model infeasible
    assert highs_calls == ["LP"]


def test_integral_relaxation_is_returned_without_branching(highs_calls):
    model = dense_model([2.0, 1.0], [([1.0, 1.0], "<=", 4), ([1.0, 0.0], "<=", 3)])
    res = solve(model)
    assert res.status == "optimal"
    assert res.gap == 0
    assert (res.value(0), res.value(1)) == (3, 1)
    assert highs_calls == ["LP"]


def test_optimal_solution_satisfies_all_constraints():
    rng = np.random.default_rng(7)
    for _ in range(5):
        rows = [([float(rng.integers(1, 4)) for _ in range(4)], "<=", float(rng.integers(5, 30)))
                for _ in range(5)]
        model = dense_model([float(rng.integers(1, 5)) for _ in range(4)], rows, ub=10)
        res = solve(model)
        assert res.status == "optimal"
        assert check_feasible(model, res.values) == []


def test_check_feasible_names_the_violated_column_and_row():
    model = dense_model([1.0, 1.0], [([1.0, 1.0], "<=", 3), ([1.0, 0.0], "=", 1)], ub=2)
    assert check_feasible(model, np.array([1.0, 2.0])) == []
    assert check_feasible(model, np.array([0.0, 3.0])) == [
        "column 1 = 3.0 outside [0.0, 2.0]", "row 1: 0.0 outside [1.0, 1.0]",
    ]


def test_integer_values_are_integral(highs_calls):
    model = dense_model([1.0], [([2.0], "<=", 7)])
    res = solve(model)
    assert res.value(0) == 3
    # the relaxation stops at x = 3.5, so branch-and-bound runs
    assert highs_calls == ["LP", "MILP"]


def branch_and_bound(model, gap_tol):
    """Objective of `model` from one HiGHS branch-and-bound call on a dense
    copy of its arrays, or None if it is infeasible: the reference for the
    LP-first path."""
    res = scipy_milp(
        c=-model.c,
        constraints=(model.a.toarray(), model.lo, model.hi),
        integrality=model.integer,
        bounds=(model.lb, model.ub),
        options={"mip_rel_gap": gap_tol},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(-res.fun + model.constant)


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
    model = dense_model([1.0], [], ub=2, constant=-10.0)
    res = solve(model)
    assert res.objective == pytest.approx(-8.0)


def test_unknown_variable_reference_rejected():
    with pytest.raises(ValueError):
        csr([(np.array([0]), np.array([3]), np.array([1.0]))], (1, 1))


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
    rows = [([1.0, 1.0], "<=", rhs), ([1.0, 0.0], "<=", cap)]
    if extra_row:
        rows.append(([0.0, 1.0], "<=", 10))
    return dense_model([2.0, 1.0], rows)


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
    moved = dense_model([2.0, 1.0], [([1.0, 1.0], "<=", 4), ([0.0, 1.0], "<=", 3)])
    doubled = dense_model([2.0, 1.0], [([1.0, 1.0], "<=", 4), ([2.0, 0.0], "<=", 3)])
    widened = dense_model([2.0, 1.0, 0.0], [([1.0, 1.0, 0.0], "<=", 4), ([1.0, 0.0, 0.0], "<=", 3)],
                          ub=[np.inf, np.inf, 1])
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


def test_branch_and_bound_sees_the_compacted_model(monkeypatch, highs_calls):
    received = []
    scipy_milp = dcsched.milp._scipy_milp

    def recorded(**kwargs):
        received.append(kwargs)
        return scipy_milp(**kwargs)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)

    def model(cap=9.0, floor=1.0):
        # x2 is fixed at 2; row 2 holds only x2 and row 3 is free
        return dense_model(
            [1.0, 1.0, 3.0],
            [([2.0, 0.0, 1.0], "<=", cap), ([0.0, 1.0, 1.0], "<=", 4),
             ([0.0, 0.0, 1.0], ">=", floor), ([1.0, 1.0, 0.0], "<=", np.inf)],
            lb=[0, 0, 2], ub=[10, 10, 2], constant=-1.0,
        )

    res = solve(model())
    assert highs_calls == ["LP", "MILP"]
    (call,) = received
    cons, bounds = call["constraints"], call["bounds"]
    # only x0 and x1 and the two rows they enter, each shifted by 2 * x2
    np.testing.assert_array_equal(call["c"], [-1.0, -1.0])
    np.testing.assert_array_equal(cons.A.toarray(), [[2.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(cons.ub, [7.0, 2.0])
    np.testing.assert_array_equal(bounds.ub, [10.0, 10.0])
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.values, [3.0, 2.0, 2.0])
    assert res.objective == pytest.approx(3 + 2 + 6 - 1)
    sub, live = dcsched.milp.compact(model())
    assert sub.constant == 5.0
    np.testing.assert_array_equal(live, [0, 1])

    # an integral relaxation and an infeasible one settle without branching
    highs_calls.clear()
    assert solve(model(cap=8.0)).objective == pytest.approx(3 + 2 + 6 - 1)
    assert solve(model(floor=3.0)).status == "infeasible"
    assert highs_calls == ["LP", "LP"]
    assert len(received) == 1
