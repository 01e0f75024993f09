from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp
from scipy.optimize._highspy._core import HighsBasis, _Highs

import dcsched.milp
import dcsched.stage
from dcsched.core import HorizonConfig, ObjectiveWeights
from dcsched.engine import run
from dcsched.milp import INT_TOL, MilpModel, WarmStart, check_feasible, compact, csr, solve
from dcsched.signals import noisy_forecast, synthetic_carbon
from dcsched.stage import build_stage, solve_stage, validate_decision
from test_acceptance import DESK, _c7_profile, _cliff_capacity
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


def scipy_fallback(model, gap_tol):
    """Values of `model` from scipy's `milp` on its compacted model, the
    fixed columns put back and the integer columns rounded: what
    :func:`solve` returns when it branches."""
    sub, live = compact(model)
    res = scipy_milp(c=-sub.c, constraints=LinearConstraint(sub.a, sub.lo, sub.hi),
                     integrality=sub.integer, bounds=Bounds(sub.lb, sub.ub),
                     options={"mip_rel_gap": gap_tol})
    assert res.status == 0, res.message
    x = model.lb.copy()
    x[live] = res.x
    assert np.all(np.abs(x[model.integer] - np.round(x[model.integer])) <= INT_TOL)
    x[model.integer] = np.round(x[model.integer]) + 0.0
    return x


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
            if highs_calls[-1] == "MILP":
                # the same HiGHS run as scipy's milp on the compacted model
                np.testing.assert_array_equal(res.values, scipy_fallback(model, gap_tol))
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
    """Record, for each relaxation (a model with no integer column) run
    through `dcsched.milp._scipy_milp`, whether it was given a starting
    basis."""
    given = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None):
        if not model.integer.any():
            given.append(basis is not None)
        return highs(model, time_limit, gap_tol, basis)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
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


def test_refused_option_or_basis_fails_the_solve():
    # HiGHS refuses these and would otherwise run on with its default: no
    # time limit, the default gap, or a cold start
    model = budget_model(3)
    for kwargs, named in (({"time_limit": -1.0}, "option time_limit = -1.0"),
                          ({"gap_tol": -1.0}, "option mip_rel_gap = -1.0"),
                          ({"warm": WarmStart(model.a, HighsBasis())}, "the starting basis")):
        res = solve(model, **kwargs)
        assert (res.status, res.values) == ("error", None), kwargs
        assert res.message == f"backend failure: HiGHS refused {named}"


HOT_OPTIONS = ("simplex_dual_edge_weight_strategy", "simplex_scale_strategy")
JUMP = "mip_heuristic_run_feasibility_jump"


def test_only_hot_relaxations_leave_the_highs_defaults(monkeypatch):
    runs = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None):
        run = highs(model, time_limit, gap_tol, basis)
        kind = "MILP" if model.integer.any() else "hot" if basis is not None else "cold"
        runs.append((kind, [run.getOptionValue(name)[1] for name in HOT_OPTIONS + (JUMP,)]))
        return run

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    defaults = [_Highs().getOptionValue(name)[1] for name in HOT_OPTIONS]
    assert defaults != [1, 0] and _Highs().getOptionValue(JUMP)[1] is True
    # a fractional relaxation, solved twice with one warm start: cold, then
    # hot; with a rounding mask, its neighbourhood (x = 3, not within the
    # gap of 3.5) runs before full branch-and-bound
    warm = WarmStart()
    for rounded in (None, None, np.ones(1, dtype=bool)):
        assert solve(dense_model([1.0], [([2.0], "<=", 7)]), warm=warm, rounded=rounded).value(0) == 3
    # Devex pricing and no scaling on the hot relaxation only; Feasibility
    # Jump off on every branch-and-bound run, the neighbourhood included
    lp, bnb = defaults + [True], defaults + [False]
    assert runs == [("cold", lp), ("MILP", bnb), ("hot", [1, 0, True]), ("MILP", bnb),
                    ("hot", [1, 0, True]), ("MILP", bnb), ("MILP", bnb)]


def test_infeasible_neighbourhood_falls_through_to_branch_and_bound(highs_calls):
    # on 2x + 3y = 6, y <= 1.5 the LP stops at (0.75, 1.5); no integer point
    # has x in [0, 1] and y in [1, 2], but (3, 0) is the MILP optimum
    model = dense_model([1.0, 1.6], [([2.0, 3.0], "=", 6), ([0.0, 1.0], "<=", 1.5)])
    res = solve(model, rounded=np.ones(2, dtype=bool))
    assert highs_calls == ["LP", "MILP", "MILP"]
    assert (res.status, res.gap) == ("optimal", 0.0)
    np.testing.assert_array_equal(res.values, [3.0, 0.0])


def test_uncertified_neighbourhood_falls_through_to_branch_and_bound(highs_calls):
    # the LP bound 3.5 and the neighbourhood's x = 3 are 1/6 apart
    res = solve(dense_model([1.0], [([2.0], "<=", 7)]), rounded=np.ones(1, dtype=bool))
    assert highs_calls == ["LP", "MILP", "MILP"]
    assert (res.status, res.value(0), res.gap) == ("optimal", 3.0, 0.0)


def test_certified_neighbourhood_is_returned_with_its_gap(highs_calls):
    # the LP stops at x0 = 10000.5; the neighbourhood's x0 = 10000 is within
    # gap_tol of that bound. x1 is fixed and, with the constant, left out of
    # the gap, as compact() leaves them out of branch-and-bound's objective;
    # x2 is not rounded and follows x0
    model = dense_model([1.0, 5.0, -0.5],
                        [([2.0, 0.0, 0.0], "<=", 20001), ([1.0, 0.0, -1.0], "=", 0)],
                        ub=[np.inf, 1, np.inf], lb=[0, 1, 0], constant=-1e6)
    res = solve(model, gap_tol=1e-4, rounded=np.array([True, True, False]))
    assert highs_calls == ["LP", "MILP"]
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.values, [10000.0, 1.0, 10000.0])
    assert res.objective == pytest.approx(5000 + 5 - 1e6)
    # HiGHS's mip_gap, |primal - bound| / |primal|, on compact(model)'s c @ x
    sub, live = compact(model)
    primal, bound = sub.c @ res.values[live], sub.c @ [10000.5, 10000.5]
    assert res.gap == pytest.approx(abs(primal - bound) / abs(primal), rel=1e-12)
    assert res.gap == pytest.approx(0.25 / 5000) and res.gap <= 1e-4
    # a tighter tolerance leaves it uncertified
    highs_calls.clear()
    res = solve(model, gap_tol=1e-5, rounded=np.array([True, True, False]))
    assert highs_calls == ["LP", "MILP", "MILP"]
    assert (res.status, res.gap) == ("optimal", 0.0)


def test_time_limit_used_up_by_the_relaxation(monkeypatch):
    # the clock passes the deadline while the LP of a fractional stage runs:
    # the neighbourhood and branch-and-bound get no time left, and the
    # solve fails
    limits = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, *args, **kwargs):
        limits.append(time_limit)
        clock.append(clock[-1] + 10.0)
        return highs(model, time_limit, *args, **kwargs)

    clock = [0.0]
    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    monkeypatch.setattr(dcsched.milp, "time", SimpleNamespace(perf_counter=lambda: clock[-1]))
    model, h = build_stage(random_stage(13))
    res = solve(model, time_limit=5.0, rounded=h.rounded)
    assert limits == [5.0, 0.0, 0.0]
    assert (res.status, res.message, res.values) == ("error", "Time limit reached", None)


def test_branch_and_bound_sees_the_compacted_model(monkeypatch, highs_calls):
    received = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, *args, **kwargs):
        if model.integer.any():
            received.append(model)
        return highs(model, *args, **kwargs)

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
    (sub,) = received
    # only x0 and x1 and the two rows they enter, each shifted by 2 * x2
    np.testing.assert_array_equal(sub.c, [1.0, 1.0])
    np.testing.assert_array_equal(sub.a.toarray(), [[2.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(sub.hi, [7.0, 2.0])
    np.testing.assert_array_equal(sub.ub, [10.0, 10.0])
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.values, [3.0, 2.0, 2.0])
    assert res.objective == pytest.approx(3 + 2 + 6 - 1)
    sub, live = compact(model())
    assert sub.constant == 5.0
    np.testing.assert_array_equal(live, [0, 1])

    # an integral relaxation and an infeasible one settle without branching
    highs_calls.clear()
    assert solve(model(cap=8.0)).objective == pytest.approx(3 + 2 + 6 - 1)
    assert solve(model(floor=3.0)).status == "infeasible"
    assert highs_calls == ["LP", "LP"]
    assert len(received) == 1


def test_time_limit_hit_without_a_solution_is_an_error():
    for seed in range(40):
        model, _ = build_stage(random_stage(seed))
        res = solve(model, time_limit=0)
        assert (res.status, res.message, res.values) == ("error", "Time limit reached", None)


def test_branch_and_bound_stopped_at_a_limit_returns_its_incumbent(first_incumbent, highs_calls):
    # the relaxation of this stage is fractional; branch-and-bound stops at
    # its first incumbent, short of gap_tol
    model, _ = build_stage(random_stage(1))
    res = solve(model)
    assert highs_calls == ["LP", "MILP"]
    assert (res.status, res.message) == ("feasible-gap", "Solution limit reached")
    assert check_feasible(model, res.values) == []
    assert res.gap == first_incumbent[-1].getInfo().mip_gap > 1e-4
    assert res.objective == pytest.approx(model.c @ res.values + model.constant)


def test_neighbourhood_counts_on_an_overload_loop(monkeypatch, highs_calls):
    # one T=9 closed loop of the c7 overload scenario (capacity seed 1, gap
    # 1e-3): per solve of a stage model, the HiGHS runs it made
    per_solve = []
    stage_solve = dcsched.stage.solve

    def counted(*args, **kwargs):
        first = len(highs_calls)
        res = stage_solve(*args, **kwargs)
        per_solve.append(tuple(highs_calls[first:]))
        return res

    monkeypatch.setattr(dcsched.stage, "solve", counted)
    profile = _c7_profile(32)
    truth = _cliff_capacity(200, 32, 1)
    run(DESK, profile, tuple(sorted({c for _, c in profile.counts})), truth, synthetic_carbon(44),
        HorizonConfig(9, 9, 9), ObjectiveWeights(),
        capacity_forecast=noisy_forecast(truth, 0.07, seed=1001, total_servers=200), gap_tol=1e-3)
    # 32 stages, 5 of them re-solved with slack; 19 fractional relaxations,
    # 15 settled by their neighbourhood, 4 by full branch-and-bound
    assert len(per_solve) == 37
    assert Counter(per_solve) == {("LP",): 18, ("LP", "MILP"): 15, ("LP", "MILP", "MILP"): 4}
