import dataclasses
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

import dcsched.milp
import dcsched.stage
from dcsched.core import DCConfig, HorizonConfig, JobClass, ObjectiveWeights
from dcsched.engine import run
from dcsched.milp import BASIC, INT_TOL, LOWER, UPPER, MilpModel, compact, csc, solve
from dcsched.signals import noisy_forecast, synthetic_carbon
from dcsched.stage import WarmStart, build_stage, greedy_basis, solve_stage, validate_decision
from conftest import fresh_highs, stage_models, state_of
import test_decisions
from test_acceptance import DESK, _c7_profile, _cliff_capacity
from test_stage import (AGREE_CFG, AGREE_CLASSES, C11, C23, assert_same_matrix, check_feasible,
                        make_inputs, random_stage, scipy_csc, without_shortfall)


def dense_model(objective, rows, lb=0.0, ub=np.inf, integer=True, constant=0.0):
    """max objective @ x + constant subject to `rows` of (dense
    coefficients, sense, rhs); lb, ub and integer hold for every column or
    give one value per column."""
    n = len(objective)
    senses = [sense for _, sense, _ in rows]
    rhs = np.array([rhs for _, _, rhs in rows], dtype=float)
    dense = np.array([coeffs for coeffs, _, _ in rows], dtype=float).reshape(-1, n)
    i, j = np.nonzero(dense)
    return MilpModel(
        c=np.array(objective, dtype=float),
        lb=np.broadcast_to(np.asarray(lb, dtype=float), n).copy(),
        ub=np.broadcast_to(np.asarray(ub, dtype=float), n).copy(),
        integer=np.broadcast_to(np.asarray(integer, dtype=bool), n).copy(),
        a=csc([(i, j, dense[i, j])], dense.shape),
        lo=np.where([sense != "<=" for sense in senses], rhs, -np.inf),
        hi=np.where([sense != ">=" for sense in senses], rhs, np.inf),
        constant=constant,
    )


def test_simple_bounded_maximum():
    model = dense_model([1.0], [([1.0], "<=", 5)])
    res = solve(model)
    assert res.status == "optimal"
    assert res.values[0] == 5
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
    assert (res.values[0], res.values[1]) == (3, 1)
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
    assert res.values[0] == 3
    # the relaxation stops at x = 3.5, so branch-and-bound runs
    assert highs_calls == ["LP", "MILP"]


def branch_and_bound(model, gap_tol):
    """Objective of `model` from one HiGHS branch-and-bound call on a dense
    copy of its arrays, or None if it is infeasible: the reference for the
    LP-first path."""
    res = scipy_milp(
        c=-model.c,
        constraints=(scipy_csc(model.a).toarray(), model.lo, model.hi),
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
    res = scipy_milp(c=-sub.c, constraints=LinearConstraint(scipy_csc(sub.a), sub.lo, sub.hi),
                     integrality=sub.integer, bounds=Bounds(sub.lb, sub.ub),
                     options={"mip_rel_gap": gap_tol})
    assert res.status == 0, res.message
    x = model.lb.copy()
    x[live] = res.x
    assert np.all(np.abs(x[model.integer] - np.round(x[model.integer])) <= INT_TOL)
    x[model.integer] = np.round(x[model.integer]) + 0.0
    return x


def test_lp_first_matches_branch_and_bound_on_random_stages(highs_calls, given_starts):
    gap_tol = 1e-4
    paths = {"LP": 0, "MILP": 0, "seeded": 0}
    for seed in range(40):
        inputs = random_stage(seed)
        for model, h in stage_models(inputs):
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
                # solved as a stage is: full branch-and-bound, when it
                # runs, starts from the neighbourhood's solution
                given_starts.clear()
                seeded = solve(model, gap_tol=gap_tol, rounded=h.rounded)
                assert seeded.status == "optimal" and seeded.gap <= gap_tol
                assert check_feasible(model, seeded.values) == []
                assert seeded.objective == pytest.approx(res.objective, rel=gap_tol, abs=1e-6)
                paths["seeded"] += given_starts[-1] is not None
        decision = solve_stage(inputs, gap_tol=gap_tol)
        assert validate_decision(inputs, decision) == []
    # feasible models take both paths: accepted relaxations and fallbacks,
    # some of them seeded
    assert all(paths.values()), paths


def test_objective_constant_is_reported():
    model = dense_model([1.0], [], ub=2, constant=-10.0)
    res = solve(model)
    assert res.objective == pytest.approx(-8.0)


def test_unknown_variable_reference_rejected():
    for rows, cols in (([0], [3]), ([2], [0]), ([-1], [0]), ([0], [1]), ([0], [-1])):
        with pytest.raises(ValueError, match="outside the 2 x 1 matrix"):
            csc([(np.array(rows), np.array(cols), np.array([1.0]))], (2, 1))


def random_blocks(rng):
    """Two blocks of random (row, column, value) entries of a matrix of
    random shape, and that shape. The entries are unsorted, each place at
    most once, with explicit zeros."""
    shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
    n = int(rng.integers(0, shape[0] * shape[1] // 2 + 1))
    rows, cols = np.divmod(rng.choice(shape[0] * shape[1], size=n, replace=False), shape[1])
    vals = rng.normal(size=len(rows))
    vals[rng.random(len(rows)) < 0.1] = 0.0
    half = len(rows) // 2
    return [(rows[:half], cols[:half], vals[:half]), (rows[half:], cols[half:], vals[half:])], shape


def test_csc_equals_scipys_matrix_of_the_same_blocks():
    rng = np.random.default_rng(11)
    for _ in range(50):
        blocks, shape = random_blocks(rng)
        rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
        oracle = sparse.csc_matrix((vals, (rows, cols)), shape=shape)
        assert_same_matrix(csc(blocks, shape), oracle)
        if len(rows):
            # a second entry at a place already taken is a builder's error
            i = int(rng.integers(len(rows)))
            again = (rows[i:i + 1], cols[i:i + 1], np.zeros(1))
            named = f"^two entries at row {rows[i]}, column {cols[i]} of the {shape[0]} x {shape[1]}"
            with pytest.raises(ValueError, match=named + " matrix$"):
                csc([*blocks, again], shape)
    # explicit zeros are kept
    a = csc([(np.array([1, 0]), np.array([0, 0]), np.array([0.0, 2.0]))], (2, 1))
    assert (a.indptr.tolist(), a.indices.tolist(), a.data.tolist()) == ([0, 2], [0, 1], [2.0, 0.0])


def test_slice_subset_and_product_match_scipy_on_random_matrices():
    rng = np.random.default_rng(12)
    for _ in range(50):
        blocks, shape = random_blocks(rng)
        a = csc(blocks, shape)
        oracle = scipy_csc(a)
        columns = np.flatnonzero(rng.random(shape[1]) < 0.6)
        rows = np.flatnonzero(rng.random(shape[0]) < 0.6)
        assert_same_matrix(a.columns(columns), oracle[:, columns])
        assert_same_matrix(a.rows(rows), oracle[rows])
        assert_same_matrix(a.columns(columns).rows(rows), oracle[:, columns][rows])
        x = rng.normal(size=shape[1]) * 1e3
        x[rng.random(shape[1]) < 0.3] = 0.0
        assert (a @ x).tobytes() == (oracle @ x).tobytes()


def test_a_row_wise_matrix_is_rejected():
    # HiGHS is told the arrays are column-wise: any matrix but the record,
    # scipy's CSC included, is refused
    model = dense_model([1.0, 1.0], [([1.0, 2.0], "<=", 3)])
    oracle = scipy_csc(model.a)
    for other in (oracle.tocsr(), oracle, oracle.toarray()):
        with pytest.raises(TypeError, match="CSC"):
            dataclasses.replace(model, a=other)


def test_the_row_view_reads_the_column_wise_arrays():
    model = dense_model([1.0, 1.0, 1.0], [([0.0, 2.0, 1.0], "<=", 3), ([4.0, 0.0, 5.0], ">=", 1),
                                           ([0.0, 0.0, 0.0], "=", 0)])
    assert [(c.coeffs, c.sense, c.rhs) for c in model.constraints] == [
        ({1: 2.0, 2: 1.0}, "<=", 3.0), ({0: 4.0, 2: 5.0}, ">=", 1.0), ({}, "=", 0.0)]
    assert list(model.constraints[0].coeffs) == [1, 2]


SRC = str(Path(dcsched.milp.__file__).parents[1])


def run_python(code: str, *path: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that finds `path` and then dcsched."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([*path, SRC])))


def test_importing_dcsched_leaves_scipy_optimize_and_sparse_out():
    proc = run_python("import sys, dcsched.cli\n"
                      "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("first, second", [("dcsched.milp", "scipy.optimize"),
                                           ("scipy.optimize", "dcsched.milp")])
def test_dcsched_and_scipy_share_one_highs_binding(first, second):
    # in either import order, one extension module and one _Highs type
    proc = run_python(f"import {first}\nimport {second}\nimport dcsched.milp, scipy.optimize\n"
                      "from scipy.optimize._highspy._core import _Highs\n"
                      "assert dcsched.milp._Highs is _Highs\n"
                      "print(scipy.optimize.milp(c=[-1.0], bounds=(0, 3.5), integrality=[1]).x)")
    assert (proc.returncode, proc.stdout) == (0, "[3.]\n"), proc.stderr


def test_a_missing_highs_binding_fails_the_import_and_names_its_path(tmp_path):
    # a scipy without the extension file: no fallback, an ImportError
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = run_python("import dcsched.milp", str(tmp_path))
    assert proc.returncode == 1
    assert "ImportError: scipy's HiGHS binding is not at " + str(
        tmp_path / "scipy" / "optimize" / "_highspy" / "_core") in proc.stderr


@pytest.fixture
def lp_bases(monkeypatch):
    """Record, for each relaxation (a model with no integer column) run
    through `dcsched.milp._scipy_milp`, whether it was given a starting
    basis."""
    given = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        if not model.integer.any():
            given.append(basis is not None)
        return highs(model, time_limit, gap_tol, basis, start=start)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    return given


def budget_model(cap, rhs=4.0, extra_row=False):
    """max 2x + y s.t. x + y <= rhs, x <= cap: an integral relaxation whose
    matrix depends only on `extra_row`."""
    rows = [([1.0, 1.0], "<=", rhs), ([1.0, 0.0], "<=", cap)]
    if extra_row:
        rows.append(([0.0, 1.0], "<=", 10))
    return dense_model([2.0, 1.0], rows)


def moved(model, cap, rhs=4.0):
    """The two-row `budget_model` with the right-hand sides of `cap` and
    `rhs`, on the very same matrix object, as the stage builder hands every
    hour one."""
    return dataclasses.replace(model, hi=np.array([rhs, cap]))


def test_same_matrix_starts_from_the_stored_basis(lp_bases):
    model = budget_model(3)
    first = solve(model)
    assert first.basis is not None
    # only a right-hand side moved: the relaxation starts from the basis
    second = solve(moved(model, 1), basis=first.basis)
    assert lp_bases == [False, True]
    assert (second.values[0], second.values[1]) == (1, 3)
    assert (first.values[0], first.values[1]) == (3, 1)
    # and hands its own on
    assert second.basis is not None and second.basis is not first.basis


def test_changed_matrix_starts_from_the_greedy_basis(monkeypatch):
    # a stage starts from its run's basis only on the very matrix object it
    # was found on: an equal matrix that is another object, one whose data
    # differ (a steeper power slope) and one grown (a longer window) start
    # from their greedy basis, and the basis they find is then the stored one
    given = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        if not model.integer.any():
            given.append(basis)
        return highs(model, time_limit, gap_tol, basis, start=start)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)

    def stage(r, cfg=AGREE_CFG, t_h=4):
        state = state_of(r, AGREE_CLASSES, queued={C11: 1, C23: 1})
        return make_inputs(state, capacity=12, t_h=t_h, t_end=7, cfg=cfg)

    changed = {"same": stage(3), "equal": stage(3),
               "steeper": stage(3, cfg=DCConfig(12, 20.0, 2.0)), "longer": stage(3, t_h=5)}
    for name, inputs in changed.items():
        warm = WarmStart()
        solve_stage(stage(2), warm=warm)
        a = warm.matrix
        if name == "equal":
            dcsched.stage._stage_matrix.cache_clear()
        model, h = build_stage(inputs)
        b = model.a
        start = greedy = greedy_basis(inputs.bounds, h)
        if name == "same":
            start = h.shift.apply(warm.basis)
            # the two starts differ, so the test tells them apart
            assert not all(np.array_equal(m, g) for m, g in zip(start, greedy))
        given.clear()
        solve_stage(inputs, warm=warm)
        assert len(given) == 1, name
        for mine, theirs in zip(given[0], start):
            np.testing.assert_array_equal(mine, theirs, err_msg=name)
        assert warm.matrix is b
        if name == "equal":
            assert b is not a and b.shape == a.shape
            for mine, theirs in ((b.indptr, a.indptr), (b.indices, a.indices), (b.data, a.data)):
                np.testing.assert_array_equal(mine, theirs)
        elif name == "steeper":
            assert b.shape == a.shape and not np.array_equal(b.data, a.data)
        elif name == "longer":
            assert b.shape[0] > a.shape[0] and b.shape[1] > a.shape[1]


def test_infeasible_relaxation_keeps_the_stored_basis(lp_bases):
    model = budget_model(3)
    basis = solve(model).basis
    kept = [status.copy() for status in basis]
    # an infeasible relaxation, hot or cold, finds no basis and leaves the
    # one it was given as it was
    for res in (solve(moved(model, 3, rhs=-1.0), basis=basis),
                solve(budget_model(3, rhs=-1.0, extra_row=True))):
        assert (res.status, res.basis) == ("infeasible", None)
    for status, before in zip(basis, kept):
        np.testing.assert_array_equal(status, before)
    assert lp_bases == [False, True, False]
    assert solve(moved(model, 2), basis=basis).objective == pytest.approx(6.0)
    assert lp_bases[-1] is True
    # a feasible relaxation of an infeasible MILP (2x = 1) hands its basis on
    res = solve(dense_model([1.0], [([2.0], "=", 1)]))
    assert res.status == "infeasible" and res.basis is not None


def test_refused_option_or_basis_fails_the_solve():
    # HiGHS refuses these and would otherwise run on with its default: no
    # time limit, the default gap, or a cold start; the bases have a status
    # too many or too few, square or not, or the right lengths and no basic
    # entry, which HiGHS would complete had it come as alien
    model = budget_model(3)
    short = (np.array([BASIC], dtype=np.int8), np.array([BASIC, UPPER], dtype=np.int8))
    long = (np.array([BASIC, BASIC, BASIC], dtype=np.int8), np.array([UPPER, UPPER], dtype=np.int8))
    nonbasic = (np.full(2, LOWER, dtype=np.int8), np.full(2, UPPER, dtype=np.int8))
    for kwargs, named in (({"time_limit": -1.0}, "option time_limit = -1.0"),
                          ({"gap_tol": -1.0}, "option mip_rel_gap = -1.0"),
                          ({"basis": short}, "the starting basis"),
                          ({"basis": long}, "the starting basis"),
                          ({"basis": nonbasic}, "the starting basis")):
        res = solve(model, **kwargs)
        assert (res.status, res.values) == ("error", None), kwargs
        assert res.message == f"backend failure: HiGHS refused {named}"


def test_the_basis_read_back_equals_highs_own(monkeypatch, tmp_path):
    # every optimal relaxation of the random stages (cold) and of the desk
    # and overload loops of test_decisions (hot and cold, with
    # terminations and slack): the statuses kept are the ones getBasis()
    # lists, the fixed columns and the equality rows included
    seen = Counter()
    read_basis = dcsched.milp._read_basis

    def checked(highs, solution, model, x):
        col, row = read_basis(highs, solution, model, x)
        basis = highs.getBasis()
        assert col.tolist() == [int(s) for s in basis.col_status]
        assert row.tolist() == [int(s) for s in basis.row_status]
        fixed, equality = model.lb == model.ub, model.lo == model.hi
        for name, status in (("fixed", col[fixed]), ("equality", row[equality])):
            seen[name, "upper"] += np.count_nonzero(status == UPPER)
            seen[name, "lower"] += np.count_nonzero(status == LOWER)
        seen["relaxations"] += 1
        return col, row

    monkeypatch.setattr(dcsched.milp, "_read_basis", checked)
    for seed in range(40):
        for model, _ in stage_models(random_stage(seed)):
            solve(dataclasses.replace(model, integer=np.zeros_like(model.integer)))
    for cell in (test_decisions.DESK_CELL, test_decisions.OVERLOAD_CELL):
        (tmp_path / "cell").mkdir()
        test_decisions.run_cell(tmp_path / "cell", cell)
        shutil.rmtree(tmp_path / "cell")
    assert seen["relaxations"] > 100
    assert min(seen.values()) > 0, seen


HOT_OPTIONS = ("simplex_dual_edge_weight_strategy", "simplex_scale_strategy")
JUMP = "mip_heuristic_run_feasibility_jump"
SUB_MIPS = ("mip_heuristic_run_rens", "mip_heuristic_run_rins",
            "mip_heuristic_run_root_reduced_cost")


def test_only_hot_relaxations_leave_the_highs_defaults(monkeypatch):
    runs, objects = [], []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        run = highs(model, time_limit, gap_tol, basis, start=start)
        objects.append(run)
        kind = ("seeded" if start is not None else "MILP" if model.integer.any()
                else "hot" if basis is not None else "cold")
        runs.append((kind, [run.getOptionValue(name)[1]
                            for name in HOT_OPTIONS + (JUMP,) + SUB_MIPS]))
        return run

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    defaults = [_Highs().getOptionValue(name)[1] for name in HOT_OPTIONS]
    assert defaults != [1, 0]
    assert [_Highs().getOptionValue(name)[1] for name in (JUMP,) + SUB_MIPS] == [True] * 4
    # a fractional relaxation, solved three times, each from the basis the
    # solve before found: cold, then hot; with a rounding mask, its
    # neighbourhood (x = 3, not within the gap of 3.5) runs before full
    # branch-and-bound, which it seeds
    model, basis = dense_model([1.0], [([2.0], "<=", 7)]), None
    for rounded in (None, None, np.ones(1, dtype=bool)):
        res = solve(model, basis=basis, rounded=rounded)
        assert res.values[0] == 3
        basis = res.basis
    # Devex pricing and no scaling on the hot relaxation only; Feasibility
    # Jump off on every branch-and-bound run, the neighbourhood included;
    # RENS, RINS and root reduced-cost fixing off on the seeded run only
    lp, hot = defaults + [True] * 4, [1, 0] + [True] * 4
    bnb, seeded = defaults + [False] + [True] * 3, defaults + [False] * 4
    assert runs == [("cold", lp), ("MILP", bnb), ("hot", hot), ("MILP", bnb),
                    ("hot", hot), ("MILP", bnb), ("seeded", seeded)]
    # integral relaxations, cold, hot and cold again, run in one object:
    # the cold one after the hot one has HiGHS's defaults back
    runs.clear(), objects.clear()
    model = budget_model(3)
    basis = solve(model).basis
    assert solve(moved(model, 1), basis=basis).values.tolist() == [1, 3]
    assert solve(moved(model, 2)).values.tolist() == [2, 2]
    assert runs == [("cold", lp), ("hot", hot), ("cold", lp)]
    assert objects[0] is objects[1] is objects[2]


def test_the_installed_highs_takes_every_option_set():
    # a HiGHS without one of these names, or with another type for it,
    # would fail every solve that sets it as `error`
    for name, value in dcsched.milp._HOT + dcsched.milp._BNB + dcsched.milp._SEEDED:
        highs = _Highs()
        assert highs.setOptionValue(name, value) != HighsStatus.kError, name
        assert highs.getOptionValue(name)[1] == value, name


def test_infeasible_neighbourhood_falls_through_to_branch_and_bound(highs_calls, given_starts):
    # on 2x + 3y = 6, y <= 1.5 the LP stops at (0.75, 1.5); no integer point
    # has x in [0, 1] and y in [1, 2], but (3, 0) is the MILP optimum
    model = dense_model([1.0, 1.6], [([2.0, 3.0], "=", 6), ([0.0, 1.0], "<=", 1.5)])
    res = solve(model, rounded=np.ones(2, dtype=bool))
    assert highs_calls == ["LP", "MILP", "MILP"]
    # with no solution in the neighbourhood, branch-and-bound starts bare
    assert given_starts == [None, None, None]
    assert (res.status, res.gap) == ("optimal", 0.0)
    np.testing.assert_array_equal(res.values, [3.0, 0.0])


def test_uncertified_neighbourhood_falls_through_to_branch_and_bound(highs_calls):
    # the LP bound 3.5 and the neighbourhood's x = 3 are 1/6 apart
    res = solve(dense_model([1.0], [([2.0], "<=", 7)]), rounded=np.ones(1, dtype=bool))
    assert highs_calls == ["LP", "MILP", "MILP"]
    assert (res.status, res.values[0], res.gap) == ("optimal", 3.0, 0.0)


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


def test_uncertified_neighbourhood_seeds_branch_and_bound(given_starts):
    # max x + 3y s.t. x + 2y <= 7: the LP stops at (0, 3.5) with bound 10.5;
    # its neighbourhood fixes x = 0 and finds (0, 3), worth 9, 1/6 short of
    # the bound. Full branch-and-bound starts from (0, 3) and finds (1, 3)
    model = dense_model([1.0, 3.0], [([1.0, 2.0], "<=", 7)])
    found = dcsched.milp._neighbourhood(model, np.array([0.0, 3.5]), np.ones(2, dtype=bool),
                                        np.inf, 1e-4)
    assert found is not None and found[1] == pytest.approx(1.5 / 9)
    given_starts.clear()
    res = solve(model, gap_tol=1e-4, rounded=np.ones(2, dtype=bool))
    assert [start is None for start in given_starts] == [True, True, False]
    np.testing.assert_array_equal(given_starts[-1], found[0])
    assert res.status == "optimal" and res.gap <= 1e-4
    assert res.objective >= model.c @ found[0]
    np.testing.assert_array_equal(res.values, [1.0, 3.0])
    assert res.objective == pytest.approx(10.0)


def test_the_start_is_given_on_the_compacted_columns(given_starts):
    # x1 is fixed at 1 and left out of branch-and-bound; the start holds
    # the other two columns of the neighbourhood's solution
    model = dense_model([1.0, 0.0, 3.0], [([1.0, 0.0, 2.0], "<=", 7), ([0.0, 1.0, 1.0], "<=", 9)],
                        lb=[0, 1, 0], ub=[np.inf, 1, np.inf])
    res = solve(model, rounded=np.ones(3, dtype=bool))
    assert [start is None for start in given_starts] == [True, True, False]
    np.testing.assert_array_equal(given_starts[-1], [0.0, 3.0])
    np.testing.assert_array_equal(res.values, [1.0, 1.0, 3.0])


def test_a_refused_start_fails_the_solve(monkeypatch):
    # a start one column too long: HiGHS refuses it, and the solve reports
    # the error instead of running on without it
    highs = dcsched.milp._scipy_milp

    def lengthened(model, *args, start=None, **kwargs):
        if start is not None:
            start = np.append(start, 0.0)
        return highs(model, *args, start=start, **kwargs)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", lengthened)
    res = solve(dense_model([1.0, 3.0], [([1.0, 2.0], "<=", 7)]), rounded=np.ones(2, dtype=bool))
    assert (res.status, res.values) == ("error", None)
    assert res.message == "backend failure: HiGHS refused the starting solution"


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


def relaxed(model):
    """`model` with no integer column."""
    return dataclasses.replace(model, integer=np.zeros_like(model.integer))


def test_the_kept_objects_run_time_leaves_the_time_limit_whole():
    # HiGHS's run clock adds up over the runs of an object, and its time
    # limit is read on that clock: once the kept relaxation object has run
    # for longer than a limit, a relaxation given that limit still solves,
    # and one given no time still stops at once
    limit = 0.02
    model = budget_model(3)
    lp = relaxed(model)
    kept = dcsched.milp._scipy_milp(lp, 60.0, 1e-4)
    for _ in range(100_000):
        if kept.getRunTime() > limit:
            break
        dcsched.milp._scipy_milp(lp, 60.0, 1e-4)
    assert kept.getRunTime() > limit
    res = solve(model, time_limit=limit)
    assert (res.status, res.values.tolist()) == ("optimal", [3, 1])
    assert dcsched.milp._kept.highs is kept
    res = solve(model, time_limit=0.0)
    assert (res.status, res.message, res.values) == ("error", "Time limit reached", None)


def cold_and_hot(first, second):
    """The relaxations of the stage `first` and of `second`, the hour after
    it on the same matrix, each with its clearance slack open, as (model,
    starting basis): the first cold, the second from the first's basis
    moved one hour along, as a run passes it."""
    (one, _), (two, h) = stage_models(first)[1], stage_models(second)[1]
    assert two.a is one.a
    basis = solve(relaxed(one)).basis
    assert basis is not None
    return [(relaxed(one), None), (relaxed(two), h.shift.apply(basis))]


def fleet_hours():
    """Two hours of a fleet stage: 60 classes on 20,000 servers, a
    24-hour window, a queue and forecast arrivals."""
    classes = tuple(JobClass(k, l) for k in (1, 2, 4, 8, 16) for l in range(1, 13))
    rng = np.random.default_rng(0)
    carbon = {t: 400.0 + 100.0 * np.sin(t / 4) for t in range(1, 50)}

    def hour(r):
        queued = dict(zip(classes, rng.integers(0, 400, len(classes)).tolist()))
        return make_inputs(state_of(r, classes, queued=queued),
                           job_forecast=rng.integers(0, 40, (len(classes), 24)), capacity=20000,
                           carbon=carbon, weights=ObjectiveWeights(0.1, 5.0), t_h=24, t_end=56,
                           cfg=DCConfig(20000, 100.0, 30.0))

    return hour(1), hour(2)


def relaxation_outcome(model, basis=None, time_limit=60.0):
    """Run the relaxation `model` from `basis` through the one binding and
    read its status, column values, basis and simplex iterations."""
    highs = dcsched.milp._scipy_milp(model, time_limit, 1e-4, basis)
    status, found = highs.getModelStatus(), None
    if status == HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        found = x, dcsched.milp._read_basis(highs, solution, model, x)
    return status, found, highs.getInfo().simplex_iteration_count


def test_relaxations_from_the_greedy_basis_end_as_cold_ones():
    # each relaxation started from its stage's greedy basis ends at the
    # status and objective of the same relaxation run cold in a new HiGHS
    # object: on random stages, with shortfalls, windows cut by the end of
    # the run and the clearance slack closed and open, and on a fleet stage
    seen = Counter()
    for inputs in [random_stage(seed) for seed in range(200)] + [fleet_hours()[0]]:
        for model, h in stage_models(inputs):
            lp = relaxed(model)
            hot = dcsched.milp._scipy_milp(lp, 60.0, 1e-4, greedy_basis(inputs.bounds, h))
            status, objective = hot.getModelStatus(), hot.getInfo().objective_function_value
            with fresh_highs():
                cold = dcsched.milp._scipy_milp(lp, 60.0, 1e-4)
                assert cold.getModelStatus() == status
                if status == HighsModelStatus.kOptimal:
                    assert objective == pytest.approx(cold.getInfo().objective_function_value,
                                                      rel=1e-9)
            seen[status.name] += 1
    assert dict(seen) == {"kInfeasible": 168, "kOptimal": 234}


def test_no_relaxation_depends_on_the_kept_objects_history():
    # fixed relaxations, cold and hot, give in the kept object what they
    # give in a new one, whatever kind of run the object made before: the
    # same status, column values to the bit, basis and simplex iterations
    cases = []
    for seed in (0, 1, 3):
        first = without_shortfall(random_stage(seed))
        second = without_shortfall(random_stage(seed + 40, r=first.state.stage + 1,
                                                t_end=first.t_end))
        cases += cold_and_hot(first, second)
    fleet = cold_and_hot(*fleet_hours())
    cases += fleet
    budget = budget_model(3)
    other_hot = cold_and_hot(*(without_shortfall(random_stage(seed, r=r, t_end=9))
                               for seed, r in ((5, 4), (6, 5))))[1]

    def refused():
        with pytest.raises(ValueError, match="HiGHS refused option time_limit = -1.0"):
            dcsched.milp._scipy_milp(relaxed(budget), -1.0, 1e-4)

    before = {
        "a cold relaxation of another shape": lambda: relaxation_outcome(relaxed(budget)),
        "a hot relaxation": lambda: relaxation_outcome(*other_hot),
        "an infeasible relaxation": lambda: relaxation_outcome(
            relaxed(budget_model(3, rhs=-1.0))),
        "a run stopped at its time limit": lambda: relaxation_outcome(fleet[0][0],
                                                                     time_limit=0.0),
        "a run whose option HiGHS refused": refused,
    }
    kinds = [before[name]() for name in list(before)[:4]]
    assert [status for status, *_ in kinds] == [HighsModelStatus.kOptimal] * 2 + [
        HighsModelStatus.kInfeasible, HighsModelStatus.kTimeLimit]
    assert sum(basis is not None for _, basis in cases) == len(cases) // 2
    compared = 0
    for model, basis in cases:
        with fresh_highs():
            status, found, iterations = relaxation_outcome(model, basis)
        assert status == HighsModelStatus.kOptimal
        x, (col, row) = found
        for name, run in before.items():
            run()
            again, found, again_iterations = relaxation_outcome(model, basis)
            assert (again, again_iterations) == (status, iterations), name
            assert x.tobytes() == found[0].tobytes(), name
            np.testing.assert_array_equal(found[1][0], col, err_msg=name)
            np.testing.assert_array_equal(found[1][1], row, err_msg=name)
            compared += 1
    assert compared == 40


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
    np.testing.assert_array_equal(scipy_csc(sub.a).toarray(), [[2.0, 0.0], [0.0, 1.0]])
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
    runs = first_incumbent()
    model, _ = build_stage(random_stage(1))
    res = solve(model)
    assert highs_calls == ["LP", "MILP"]
    assert (res.status, res.message) == ("feasible-gap", "Solution limit reached")
    assert check_feasible(model, res.values) == []
    assert res.gap == runs[-1].getInfo().mip_gap > 1e-4
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


def test_neighbourhood_stopped_at_a_limit_keeps_its_incumbent(first_incumbent, given_starts,
                                                              monkeypatch):
    # this stage's neighbourhood, the second HiGHS run of a solve, stops at
    # its first improving solution, as a limit stops it holding one
    model, h = stage_models(random_stage(24))[1]
    found = []
    neighbourhood = dcsched.milp._neighbourhood

    def recorded(*args):
        found.append(neighbourhood(*args))
        return found[-1]

    monkeypatch.setattr(dcsched.milp, "_neighbourhood", recorded)
    runs = first_incumbent(1, 4)
    res = solve(model, gap_tol=1e-4, rounded=h.rounded)
    assert runs[1].getModelStatus() == HighsModelStatus.kSolutionLimit
    ((x, gap),) = found
    assert check_feasible(model, x) == []
    # short of gap_tol of the LP bound: it starts full branch-and-bound
    assert len(runs) == 3 and gap > 1e-4
    np.testing.assert_array_equal(given_starts[2], x[compact(model)[1]])
    assert (res.status, len(given_starts)) == ("optimal", 3) and res.gap <= 1e-4
    assert res.objective >= model.c @ x + model.constant
    # HiGHS stopped further from its own bound than from the LP bound; with
    # gap_tol between the two, the incumbent is certified against the LP
    # bound and returned as optimal, with no full branch-and-bound
    limit_gap = runs[1].getInfo().mip_gap
    assert gap < limit_gap
    tol = (gap + limit_gap) / 2
    res = solve(model, gap_tol=tol, rounded=h.rounded)
    assert len(runs) == 5 and runs[4].getModelStatus() == HighsModelStatus.kSolutionLimit
    assert runs[4].getInfo().mip_gap > tol
    assert found[1][1] == gap and (res.status, res.gap) == ("optimal", gap)
    np.testing.assert_allclose(res.values, x, rtol=0, atol=INT_TOL)


def test_neighbourhood_that_uses_up_the_time_hands_on_its_incumbent(first_incumbent, given_starts,
                                                                    monkeypatch):
    # the neighbourhood stops holding an uncertified incumbent, and the
    # clock passes the deadline while it runs: full branch-and-bound gets
    # no time, and HiGHS hands the start back unchanged, with no bound; the
    # gap reported is the one to the LP bound
    clock = [0.0]
    highs = dcsched.milp._scipy_milp

    def slow(*args, **kwargs):
        clock.append(clock[-1] + 10.0)
        return highs(*args, **kwargs)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", slow)
    monkeypatch.setattr(dcsched.milp, "time", SimpleNamespace(perf_counter=lambda: clock[-1]))
    model, h = stage_models(random_stage(24))[1]
    runs = first_incumbent(1)
    res = solve(model, time_limit=15.0, rounded=h.rounded)
    assert runs[1].getModelStatus() == HighsModelStatus.kSolutionLimit
    assert runs[2].getInfo().mip_node_count == 0
    assert runs[2].getInfo().mip_gap == np.inf
    assert (res.status, res.message) == ("feasible-gap", "Time limit reached")
    # on the objective branch-and-bound sees: the compacted columns, no constant
    live, x_lp = compact(model)[1], np.array(runs[0].getSolution().col_value)
    primal, bound = model.c[live] @ res.values[live], model.c[live] @ x_lp[live]
    assert res.gap == pytest.approx(abs(primal - bound) / abs(primal))
    assert 0 < res.gap < 1
    assert check_feasible(model, res.values) == []
    np.testing.assert_array_equal(given_starts[2], res.values[compact(model)[1]])
