import dataclasses
import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from conftest import running_of, stage_models, state_of
import dcsched.milp
from scipy.optimize._highspy._core import HighsModelStatus
from dcsched.milp import BASIC, LOWER, UPPER, CscMatrix, MilpModel, compact, solve
from dcsched.core import (
    ArrivalProfile,
    DCConfig,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    power_of,
)
from dcsched.offline import build_offline
from dcsched.stage import (
    Shift,
    StageError,
    StageInputs,
    WarmStart,
    build_stage,
    greedy_basis,
    solve_stage,
    util_coeff,
    validate_decision,
)

C11 = JobClass(1, 1)
C12 = JobClass(1, 2)
C22 = JobClass(2, 2)
C23 = JobClass(2, 3)

CFG = DCConfig(total_servers=4, p_peak_mw=10.0, p_idle_mw=2.0)


def make_inputs(
    state,
    job_forecast=None,
    capacity=4,
    carbon=None,
    weights=None,
    t_h=4,
    t_end=None,
    cfg=CFG,
):
    """Stage inputs of `state` with a constant capacity forecast;
    `job_forecast` is a classes x window array (none by default), `carbon` maps each
    extended-window hour to its rate (0 by default). The run ends at
    `t_end`, by default at the last extended-window hour, so that every
    start in the window can finish."""
    hz = HorizonConfig(t_h=t_h, t_j=t_h, t_c=t_h)
    r, classes = state.stage, state.classes
    l_max = max(c.runtime for c in classes)
    if t_end is None:
        t_end = r + t_h + l_max - 2
    last = min(r + t_h - 1, t_end)
    if job_forecast is None:
        job_forecast = np.zeros((len(classes), last - r + 1), dtype=np.int64)
    return StageInputs(
        cfg=cfg,
        state=state,
        job_forecast=job_forecast,
        capacity_forecast=np.full(last - r + 1, capacity),
        carbon_forecast=np.array([carbon[t] if carbon else 0.0 for t in range(r, last + l_max)]),
        weights=weights or ObjectiveWeights(),
        horizons=hz,
        t_end=t_end,
    )


def test_util_coeff_values():
    assert util_coeff(1, 24, JobClass(1, 6), 1) == 149
    assert util_coeff(1, 24, JobClass(1, 6), 5) == 145
    assert util_coeff(1, 4, C11, 4) == 1
    # starting earlier is always worth more for the same class
    assert util_coeff(3, 8, C22, 3) > util_coeff(3, 8, C22, 4)


def test_empty_state_objective_is_idle_cost():
    weights = ObjectiveWeights(lambda_ce=2.0, lambda_pd=3.0)
    carbon = {t: 100.0 + t for t in range(1, 9)}
    state = state_of(1, [C23])
    inputs = make_inputs(state, carbon=carbon, weights=weights)
    decision = solve_stage(inputs)
    expected = -sum(
        weights.lambda_ce * carbon[t] * CFG.p_idle_mw for t in inputs.extended_window()
    ) - weights.lambda_pd * CFG.p_idle_mw
    assert decision.objective == pytest.approx(expected)
    assert not decision.starts.any()
    assert decision.peak == pytest.approx(CFG.p_idle_mw)


def test_queued_job_starts_immediately_without_weights():
    state = state_of(1, [C11], queued={C11: 1}, arrived={C11: 1})
    inputs = make_inputs(state)
    decision = solve_stage(inputs)
    assert decision.starts.tolist() == [[1, 0, 0, 0]]
    assert decision.active[0] == 1


def test_forecast_dip_does_not_force_termination():
    # a (2,3) job started at hour 1 is still running at stage 2; the
    # forecast says capacity collapses later, but the hour-2 truth is fine
    state = state_of(2, [C23], running={(C23, 1): 1}, arrived={C23: 1})
    inputs = make_inputs(state, capacity=0)
    decision = solve_stage(dataclasses.replace(inputs, capacity_forecast=np.array([2, 0, 0, 0])))
    assert decision.terminations == {}
    assert decision.active[:2].tolist() == [2, 2]  # hours 2 and 3


def test_realized_shortfall_forces_termination():
    # same running job, but the hour-2 truth only offers one server
    state = state_of(2, [C23], running={(C23, 1): 1}, arrived={C23: 1})
    inputs = make_inputs(state, capacity=1)
    decision = solve_stage(inputs)
    assert decision.terminations == {(C23, 1): 1}
    assert decision.active[0] == 0


def test_carbon_weight_shifts_start_to_cleaner_hour():
    # the clearance constraint forces the queued job to start somewhere in
    # the window, but leaves the hour free; carbon pricing moves it
    carbon_by_hour = {1: 100.0, 2: 100.0, 3: 500.0, 4: 10.0}
    state = state_of(1, [C11], queued={C11: 1}, arrived={C11: 1})

    greedy = solve_stage(make_inputs(state, carbon=carbon_by_hour))
    assert greedy.starts.tolist() == [[1, 0, 0, 0]]

    aware = solve_stage(make_inputs(state, carbon=carbon_by_hour,
                                    weights=ObjectiveWeights(lambda_ce=10.0)))
    assert aware.starts.tolist() == [[0, 0, 0, 1]]


def test_infeasible_clearance_opens_the_slack_columns(highs_calls, given_starts):
    # a 2-server job can never fit on a 1-server facility
    state = state_of(1, [C22], queued={C22: 1}, arrived={C22: 1})
    inputs = make_inputs(state, capacity=1)
    decision = solve_stage(inputs)
    assert decision.slack.tolist() == [1]
    assert not decision.starts.any()
    assert not validate_decision(inputs, decision)
    # half the job fits, so both relaxations are fractional: the LP, its
    # neighbourhood and the infeasible MILP of the closed model, then the
    # LP, its neighbourhood and the MILP with the slack opened. The first
    # neighbourhood is infeasible. In the second the LP left the slack at 0
    # and half the job at two hours; the slack keeps its bounds there, so
    # the neighbourhood clears the job with slack. That does not certify
    # against the LP bound, and full branch-and-bound starts from it
    assert highs_calls == ["LP", "MILP", "MILP"] * 2
    assert [start is not None for start in given_starts] == [False] * 5 + [True]


def test_slack_is_last_resort():
    # one of two queued jobs fits; slack should only absorb the other
    state = state_of(1, [C11, C22], queued={C11: 1, C22: 1}, arrived={C11: 1, C22: 1})
    inputs = make_inputs(state, capacity=1)
    decision = solve_stage(inputs)
    assert decision.slack.tolist() == [0, 1]
    assert decision.starts[0].sum() == 1


def test_class_that_cannot_finish_gets_no_clearance_slack():
    # with t_end=4 a (2,3) job queued at stage 3 cannot start at all, so it
    # waits; only the (2,2) job, which cannot fit on one server, is relaxed
    state = state_of(3, [C22, C23], queued={C22: 1, C23: 1}, arrived={C22: 1, C23: 1})
    inputs = make_inputs(state, capacity=1, t_end=4)
    decision = solve_stage(inputs)
    assert decision.slack.tolist() == [1, 0]
    assert not decision.starts.any()


def test_completable_start_filter_near_t_end():
    # with t_end=4 a 3-hour job may start no later than hour 2
    state = state_of(1, [C23], queued={C23: 1}, arrived={C23: 1})
    inputs = make_inputs(state, t_end=4)
    model, _ = build_stage(inputs)
    assert model.ub[:4].tolist() == [1, 1, 0, 0]  # the start columns, hours 1..4


def matrix_digest(a):
    return hashlib.sha256(a.indptr.tobytes() + a.indices.tobytes() + a.data.tobytes()).hexdigest()


def test_stages_of_a_run_share_one_matrix(monkeypatch):
    # a run that ends at hour 7 with a 4-hour window: stages 5-7 see a
    # truncated window, and all of them receive the matrix of stage 1
    rng = random.Random(3)
    stages = []
    for r in range(1, 8):
        running = {(c, t_b): 1 for c in AGREE_CLASSES for t_b in range(max(r - c.runtime + 1, 1), r)
                   if t_b + c.runtime - 1 <= 7 and rng.random() < 0.3}
        state = state_of(r, AGREE_CLASSES, running=running,
                         queued={c: rng.randint(0, 2) for c in AGREE_CLASSES})
        forecast = np.array([[rng.randint(0, 1) for t in range(r, r + 4)] for c in AGREE_CLASSES])
        stages.append(make_inputs(state, job_forecast=forecast[:, :8 - r], capacity=12,
                                  t_end=7, weights=ObjectiveWeights(0.01, 1.0), cfg=AGREE_CFG))
    assert len(stages[-1].window()) == 1
    a = build_stage(stages[0])[0].a
    digest = matrix_digest(a)
    relaxations = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        if not model.integer.any():
            relaxations.append((model.a is a, basis, model.ub[-len(AGREE_CLASSES):]))
        return highs(model, time_limit, gap_tol, basis, start=start)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)

    # each steady stage gets the same object, and its relaxation starts
    # from the basis the stage before left, moved one hour along; the first
    # from its greedy basis
    warm = WarmStart()
    for inputs in stages:
        model, h = build_stage(inputs)
        assert not h.terms and model.a is a
        left = warm.basis
        relaxations.clear()
        solve_stage(inputs, warm=warm)
        (shared, given, _), *_ = relaxations
        start = greedy_basis(inputs.bounds, h) if inputs is stages[0] else h.shift.apply(left)
        assert shared
        for mine, theirs in zip(given, start):
            np.testing.assert_array_equal(mine, theirs)
        assert warm.matrix is a and warm.basis is not left

    # hours 1-4 of another run, with a (2,2) job on one server at hour 3:
    # the closed model is infeasible, and its re-solve with the slack opened
    # receives the same matrix object and a basis, and so does the hour
    # after it
    warm = WarmStart()
    for inputs in stages[:2]:
        solve_stage(inputs, warm=warm)
    relaxations.clear()
    state = state_of(3, AGREE_CLASSES, queued={C22: 1})
    infeasible = make_inputs(state, capacity=1, t_end=7, cfg=AGREE_CFG)
    assert solve_stage(infeasible, warm=warm).slack.tolist() == [0, 0, 1, 0]
    assert warm.matrix is a
    solve_stage(stages[3], warm=warm)
    assert [(shared, given is not None) for shared, given, _ in relaxations] == [(True, True)] * 3
    slack_ub = [ub.tolist() for _, _, ub in relaxations]
    assert slack_ub == [[0] * 4, [np.inf] * 4, [0] * 4]

    # at hour 3 of a third run, terminations change the matrix, and no
    # stored basis fits it: it starts from its greedy basis, and the basis
    # it finds is stored
    warm = WarmStart()
    for inputs in stages[:2]:
        solve_stage(inputs, warm=warm)
    relaxations.clear()
    state = state_of(3, AGREE_CLASSES, running={(C22, 2): 1, (C23, 1): 1}, queued={C11: 1})
    cut = make_inputs(state, capacity=1, t_end=7, cfg=AGREE_CFG)
    model, h = build_stage(cut)
    assert h.terms and model.a is not a and warm.matrix is a
    solve_stage(cut, warm=warm)
    (shared, given, _), *rest = relaxations
    assert not shared and not rest
    for mine, theirs in zip(given, greedy_basis(cut.bounds, h)):
        np.testing.assert_array_equal(mine, theirs)
    assert warm.matrix is model.a
    # the shared matrix was never written to
    assert matrix_digest(a) == digest


def test_the_basis_moves_one_hour_along_each_hour_indexed_block():
    # a 4-hour window over classes of up to 3 hours: 6 m columns and 6
    # occupancy rows; a stage without terminations and one with two
    steady = make_inputs(state_of(2, AGREE_CLASSES, queued={C11: 1}), capacity=12,
                         cfg=AGREE_CFG)
    state = state_of(3, AGREE_CLASSES, running={(C22, 2): 1, (C23, 1): 1}, queued={C11: 1})
    cut = make_inputs(state, capacity=1, t_end=7, cfg=AGREE_CFG)
    n_c, t_h, n_pad = 4, 4, 6
    for inputs, n_terms in ((steady, 0), (cut, 2)):
        model, h = build_stage(inputs)
        n_rows, n_cols = model.a.shape
        n_s = n_c * t_h
        assert len(h.terms) == n_terms and h.m0 == n_s + n_terms
        # rows: occupancy, allocation, clearance, capacity, peak; the
        # basis's entries are the columns, then the rows
        clr = n_cols + n_pad + n_c * t_h
        blocks = ([(i * t_h, t_h) for i in range(n_c)] + [(h.m0, n_pad), (n_cols, n_pad)]
                  + [(n_cols + n_pad + i * t_h, t_h) for i in range(n_c)]
                  + [(clr + n_c, t_h), (clr + n_c + t_h, t_h)])
        source = list(range(n_cols + n_rows))
        for first, length in blocks:
            for o in range(length):
                source[first + o] = first + min(o + 1, length - 1)
        assert h.shift.source.tolist() == source
        last = sorted(first + length - 1 for first, length in blocks)
        assert h.shift.last.tolist() == last[::-1]
        # the terminations, PD, the slack and the clearance rows keep theirs
        kept = [e for e, s in enumerate(source) if e == s and e not in last]
        assert kept == [*range(n_s, h.m0), h.peak, *range(h.peak + 1, n_cols),
                        *range(clr, clr + n_c)]
        assert h.peak + 1 + n_c == n_cols and clr + n_c + 2 * t_h == n_cols + n_rows


def test_a_moved_basis_stays_square():
    # two columns, then two rows, each pair one hour-indexed block: entry 0
    # takes the status of entry 1, entry 2 that of entry 3; the last
    # offsets, rows first, give up or take the basic statuses in excess
    shift = Shift(np.array([1, 1, 3, 3]), np.array([3, 1]))

    def moved(cols, rows):
        return [s.tolist() for s in shift.apply((np.array(cols, dtype=np.int8),
                                                 np.array(rows, dtype=np.int8)))]

    # square as moved
    assert moved([BASIC, LOWER], [UPPER, BASIC]) == [[LOWER, LOWER], [BASIC, BASIC]]
    # two basic statuses leave: both last offsets take one
    assert moved([BASIC, LOWER], [BASIC, UPPER]) == [[LOWER, BASIC], [UPPER, BASIC]]
    # two repeat: both give theirs up, the column to its lower bound, the
    # row to its upper one
    assert moved([LOWER, BASIC], [LOWER, BASIC]) == [[BASIC, LOWER], [BASIC, UPPER]]


def test_the_slack_re_solve_starts_from_the_basis_as_found(monkeypatch):
    # hour 2 leaves its basis; at hour 3 two (2,2) jobs to clear on one
    # server make the closed relaxation infeasible: it starts from the
    # basis moved one hour along, the re-solve with the slack opened from
    # the basis as hour 2 left it
    given = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        if not model.integer.any():
            given.append(basis)
        return highs(model, time_limit, gap_tol, basis, start=start)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    warm = WarmStart()
    solve_stage(make_inputs(state_of(2, AGREE_CLASSES, queued={C11: 1, C23: 1}), capacity=12,
                            t_end=7, cfg=AGREE_CFG), warm=warm)
    found = warm.basis
    infeasible = make_inputs(state_of(3, AGREE_CLASSES, queued={C22: 2}), capacity=1, t_end=7,
                             cfg=AGREE_CFG)
    model, h = build_stage(infeasible)
    assert warm.matrix is model.a
    given.clear()
    assert solve_stage(infeasible, warm=warm).slack.tolist() == [0, 0, 2, 0]
    assert len(given) == 2 and given[1] is found
    moved = h.shift.apply(found)
    assert not all(np.array_equal(m, f) for m, f in zip(moved, found))
    for mine, theirs in zip(given[0], moved):
        np.testing.assert_array_equal(mine, theirs)
    # the re-solve's basis replaces the stored one
    assert warm.matrix is model.a and warm.basis is not found


def test_the_slack_re_solve_starts_from_the_closed_relaxations_basis(monkeypatch):
    # hour 2 leaves its basis; at hour 3 one (2,2) job to clear on one
    # server: the closed relaxation is LP-feasible (half a job starts) but
    # integer-infeasible, so the re-solve with the slack opened starts from
    # the basis that relaxation found, not from the one hour 2 left
    given, found = [], []
    highs, read_basis = dcsched.milp._scipy_milp, dcsched.milp._read_basis

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        if not model.integer.any():
            given.append(basis)
        return highs(model, time_limit, gap_tol, basis, start=start)

    def read(*args):
        found.append(read_basis(*args))
        return found[-1]

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    monkeypatch.setattr(dcsched.milp, "_read_basis", read)
    warm = WarmStart()
    solve_stage(make_inputs(state_of(2, AGREE_CLASSES, queued={C11: 1, C23: 1}), capacity=12,
                            t_end=7, cfg=AGREE_CFG), warm=warm)
    (left,) = found
    infeasible = make_inputs(state_of(3, AGREE_CLASSES, queued={C22: 1}), capacity=1, t_end=7,
                             cfg=AGREE_CFG)
    given.clear(), found.clear()
    assert solve_stage(infeasible, warm=warm).slack.tolist() == [0, 0, 1, 0]
    # the closed relaxation and the re-solve are optimal; each found a basis
    assert len(given) == 2 and len(found) == 2
    closed, reopened = found
    assert given[1] is closed
    assert not all(np.array_equal(c, s) for c, s in zip(closed, left))
    assert warm.basis is reopened
    # without `warm` the stage runs as a run's first hour: the closed
    # relaxation starts from the greedy basis, the re-solve from the basis
    # that relaxation found, not cold
    given.clear(), found.clear()
    assert solve_stage(infeasible).slack.tolist() == [0, 0, 1, 0]
    assert len(given) == 2 and len(found) == 2
    model, h = build_stage(infeasible)
    for mine, theirs in zip(given[0], greedy_basis(infeasible.bounds, h)):
        np.testing.assert_array_equal(mine, theirs)
    assert given[1] is found[0]


def test_a_relaxation_stopped_at_a_limit_keeps_the_stored_basis():
    # no time at hour 3: the relaxation stops before it finds a basis, the
    # stage fails, and the basis hour 2 left stays stored
    warm = WarmStart()
    solve_stage(make_inputs(state_of(2, AGREE_CLASSES, queued={C11: 1, C23: 1}), capacity=12,
                            t_end=7, cfg=AGREE_CFG), warm=warm)
    matrix, basis = warm.matrix, warm.basis
    late = make_inputs(state_of(3, AGREE_CLASSES, queued={C11: 1, C22: 1}), capacity=12, t_end=7,
                       cfg=AGREE_CFG)
    with pytest.raises(StageError, match="Time limit reached"):
        solve_stage(late, time_limit=0.0, warm=warm)
    assert warm.matrix is matrix and warm.basis is basis


def without_shortfall(inputs):
    """`inputs` with the capacity at r raised to the whole fleet, so that no
    job is terminated and the stage has the run's one matrix."""
    capacity = inputs.capacity_forecast.copy()
    capacity[0] = inputs.cfg.total_servers
    return dataclasses.replace(inputs, capacity_forecast=capacity)


def test_moved_bases_reach_the_cold_optimum_on_random_two_hour_sequences(monkeypatch):
    # two hours of one run on one matrix, the end of the run cutting the
    # window of many: each relaxation of the second hour, started from the
    # first hour's basis moved one hour along, ends as a cold start of the
    # same model does
    relaxations = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        run = highs(model, time_limit, gap_tol, basis, start=start)
        if not model.integer.any():
            status = run.getModelStatus()
            objective = run.getInfo().objective_function_value
            relaxations.append((basis is not None, status.name,
                                objective if status == HighsModelStatus.kOptimal else None))
        return run

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    hot = cut = 0
    for seed in range(40):
        first = without_shortfall(random_stage(seed))
        r = first.state.stage
        second = without_shortfall(random_stage(seed + 40, r=r + 1, t_end=first.t_end))
        assert build_stage(second)[0].a is build_stage(first)[0].a
        warm = WarmStart()
        solve_stage(first, warm=warm)
        relaxations.clear()
        solve_stage(second, warm=warm)
        moved = relaxations[:]
        relaxations.clear()
        for model, _ in stage_models(second):  # closed, then with the slack opened
            if solve(model).status != "infeasible":
                break
        assert [given for given, *_ in relaxations] == [False] * len(relaxations)
        assert [end for _, *end in moved] == [
            [status, pytest.approx(objective, rel=1e-9, abs=1e-9)]
            for _, status, objective in relaxations]
        hot += moved[0][0]
        cut += len(second.window()) < 4
    assert (hot, cut) == (40, 25)


def start_on_arrival(inputs):
    """The decision that starts every job the hour it becomes available:
    the queue and the arrivals at r at hour r, each later forecast arrival
    at its own hour, wherever its class may still start; with the active
    servers and the realized peak it implies."""
    classes, k = inputs.classes, inputs.bounds.k
    starts = np.zeros((len(classes), inputs.horizons.t_h), dtype=np.int64)
    for i in range(len(classes)):
        for o, n in enumerate(inputs.job_forecast[i].tolist()):
            if o < k[i]:
                starts[i, o] = n + (inputs.state.n_queued[i] if o == 0 else 0)
    return with_occupancy(inputs, StageDecision(starts, slack=np.zeros(len(classes), dtype=np.int64)))


def basic_solution(model, basis):
    """The column values and row activities of `basis` on `model`: each
    nonbasic entry at the bound its status names, the basic ones solved for
    densely. Asserts that the basis is square and nonsingular and that no
    nonbasic entry sits at an infinite bound."""
    n_rows, n_cols = model.a.shape
    full = np.hstack([scipy_csc(model.a).toarray(), -np.eye(n_rows)])  # a @ x - activity = 0
    status = np.concatenate(basis)
    basic = status == BASIC
    assert basic.sum() == n_rows
    assert np.linalg.matrix_rank(full[:, basic]) == n_rows
    value = np.where(status == UPPER, np.concatenate([model.ub, model.hi]),
                     np.concatenate([model.lb, model.lo]))
    value[basic] = 0.0
    assert np.isfinite(value).all()
    value[basic] = np.linalg.solve(full[:, basic], -full[:, ~basic] @ value[~basic])
    return value[:n_cols], value[n_cols:]


def test_the_greedy_basis_is_the_start_on_arrival_plans_vertex():
    # on random stages, with shortfalls (termination columns), windows cut
    # by the end of the run and the clearance slack closed and open, the
    # greedy basis is square and nonsingular, and its vertex is the plan
    # that starts every job the hour it becomes available, the peak at its
    # highest hour
    seen = Counter()
    for seed in range(200):
        inputs = random_stage(seed)
        plan = start_on_arrival(inputs)
        n_t = len(inputs.window())
        for model, h in stage_models(inputs):
            x, activity = basic_solution(model, greedy_basis(inputs.bounds, h))
            np.testing.assert_allclose(x, model_values(model, h, plan), rtol=0, atol=1e-9)
            np.testing.assert_array_less(activity[-4:], model.hi[-4:] + 1e-9)  # the peak rows
        seen["terms"] += bool(h.terms)
        seen["cut"] += n_t < 4
        seen["started"] += bool(plan.starts.any())
        seen["peak after r"] += int(np.argmax(plan.active[:n_t])) > 0
    assert dict(seen) == {"terms": 105, "cut": 130, "started": 200, "peak after r": 22}


def test_validate_decision_reports_what_the_model_has_no_column_for():
    # the run ends at hour 4: at stage 2 the window is hours 2..4 of the
    # 4-hour layout, a (1,4) job may not start at all and nothing of (1,1)
    # is there to start; each change below has no model column, and the
    # re-check reports it instead of raising or reading a wrapped or
    # clipped array index
    c14 = JobClass(1, 4)
    state = state_of(2, [C11, C23, c14], running={(C23, 1): 1}, queued={C23: 1}, arrived={C23: 2})
    inputs = make_inputs(state, capacity=12, t_end=4, cfg=AGREE_CFG)
    decision = solve_stage(inputs)
    assert validate_decision(inputs, decision) == []

    def recheck(**changes):
        return validate_decision(
            inputs, with_occupancy(inputs, dataclasses.replace(decision, **changes)))

    for num in (1, 2):  # C11 at hour 5, past the window; C23 at hour 4, past its last start
        starts = decision.starts.copy()
        starts[0, 3] = num
        assert recheck(starts=starts) == [f"class {C11} started at inadmissible hour 5"]
        starts = decision.starts.copy()
        starts[1, 2] = num
        assert recheck(starts=starts) == [f"class {C23} started at inadmissible hour 4",
                                          f"class {C23} over-allocated by hour 4"]
    assert recheck(terminations={(C11, 1): 1}) == [
        "terminations without a shortfall: 2 <= 12",
        f"terminating 1 of {(C11, 1)}, only 0 running",
    ]
    assert recheck(slack=np.array([0, 0, 1])) == [
        f"slack for class {c14}, which has no clearance rule"]
    # an array of another shape is reported, not indexed
    def reshaped(**changes):
        return validate_decision(inputs, dataclasses.replace(decision, **changes))

    assert reshaped(starts=decision.starts[:, :3]) == ["starts has shape (3, 3), expected (3, 4)"]
    assert reshaped(active=decision.active[1:], slack=np.zeros(4, dtype=int)) == [
        "active has shape (5,), expected (6,)", "slack has shape (4,), expected (3,)"]


def test_peak_weight_flattens_profile():
    # two queued 1-hour jobs: without the peak term both run right away;
    # with a moderate weight they are staggered across two hours
    state = state_of(1, [C11], queued={C11: 2}, arrived={C11: 2})
    flat_free = solve_stage(make_inputs(state))
    assert flat_free.active.max() == 2

    flat = solve_stage(make_inputs(state, weights=ObjectiveWeights(lambda_pd=1.0)))
    assert flat.active.max() == 1
    assert flat.peak == pytest.approx(power_of(1, CFG))


def stage_emissions(inputs, decision):
    """Carbon term of the stage objective: forecast rate times power over
    the extended window, in kg CO2."""
    return sum(rate * power_of(m, inputs.cfg)
               for rate, m in zip(inputs.carbon_forecast.tolist(), decision.active.tolist()))


def test_stage_emissions_matches_hand_computation():
    state = state_of(1, [C11], queued={C11: 1}, arrived={C11: 1})
    carbon = {1: 100.0, 2: 200.0, 3: 300.0, 4: 400.0}
    inputs = make_inputs(state, carbon=carbon)
    decision = solve_stage(inputs)
    # one active server at hour 1, idle afterwards
    expected = 100.0 * power_of(1, CFG) + (200.0 + 300.0 + 400.0) * power_of(0, CFG)
    assert stage_emissions(inputs, decision) == pytest.approx(expected)


def test_validate_decision_catches_tampering():
    state = state_of(1, [C11], queued={C11: 1}, arrived={C11: 1})
    inputs = make_inputs(state)
    decision = solve_stage(inputs)
    decision.active[0] += 1
    assert any("mismatch" in v for v in validate_decision(inputs, decision))

    # a start or termination the model has no column for: a (2,3) job
    # cannot start at hour 3 when the run ends at 4, and two held servers
    # fit the capacity, so nothing may be terminated
    state = state_of(2, [C23], running={(C23, 1): 1}, queued={C23: 1}, arrived={C23: 2})
    inputs = make_inputs(state, t_end=4)
    decision = solve_stage(inputs)
    late = dataclasses.replace(decision, starts=decision.starts + [[0, 1, 0, 0]])  # at hour 3
    assert any("inadmissible" in v for v in validate_decision(inputs, late))
    cancelled = dataclasses.replace(decision, terminations={(C23, 1): 1})
    assert any("shortfall" in v for v in validate_decision(inputs, cancelled))


def test_objective_is_finite_and_status_optimal():
    state = state_of(1, [C11, C12], queued={C11: 2, C12: 1}, arrived={C11: 2, C12: 1})
    inputs = make_inputs(state, weights=ObjectiveWeights(lambda_ce=1.0, lambda_pd=1.0),
                         carbon={t: 50.0 for t in range(1, 10)})
    decision = solve_stage(inputs)
    assert decision.status == "optimal"
    assert math.isfinite(decision.objective)
    assert decision.gap <= 1e-4


AGREE_CFG = DCConfig(total_servers=12, p_peak_mw=10.0, p_idle_mw=2.0)
AGREE_CLASSES = (C11, C12, C22, C23)


def random_stage(seed, r=None, t_end=None):
    """A small stage with running jobs, a queue, forecast arrivals, a
    capacity that may fall under the running jobs at r, and an end of run
    inside the window or late enough for every start in it to finish; at
    hour `r` and with the end of run `t_end` when they are given."""
    rng = random.Random(seed)
    drawn = rng.randint(2, 5)
    r = drawn if r is None else r
    running = {
        (c, t_b): 1
        for c in AGREE_CLASSES
        for t_b in range(r - c.runtime + 1, r)
        if rng.random() < 0.6
    }
    queued = {c: rng.randint(0, 2) for c in AGREE_CLASSES}
    state = state_of(r, AGREE_CLASSES, running=running, queued=queued)
    hz = HorizonConfig(t_h=4, t_j=4, t_c=4)
    # r + 5: a 3-hour job started at the window's last hour, r + 3, ends then
    drawn = rng.choice([r + 5, r + 1, r + 2])
    t_end = drawn if t_end is None else t_end
    last = min(r + 3, t_end)
    ts = range(r, last + 1)
    return StageInputs(
        cfg=AGREE_CFG,
        state=state,
        job_forecast=np.array([[rng.randint(0, 1) for t in ts] for c in AGREE_CLASSES]),
        capacity_forecast=np.array([rng.randint(0, 8) for t in ts]),
        carbon_forecast=np.array([float(rng.randint(0, 100)) for t in range(r, last + 3)]),
        weights=ObjectiveWeights(rng.choice([0.0, 0.01]), rng.choice([0.0, 1.0])),
        horizons=hz,
        t_end=t_end,
    )


def test_time_limit_hit_without_a_solution_fails_the_stage():
    with pytest.raises(StageError, match="error: Time limit reached"):
        solve_stage(random_stage(1), time_limit=0)


def test_incumbent_at_a_limit_is_a_feasible_gap_decision(first_incumbent):
    # branch-and-bound stops at its first incumbent, short of gap_tol: the
    # decision says so and still passes the independent re-check
    runs = first_incumbent()
    inputs = random_stage(1)
    decision = solve_stage(inputs)
    assert decision.status == "feasible-gap"
    assert decision.gap == runs[-1].getInfo().mip_gap > 1e-4
    assert validate_decision(inputs, decision) == []


def with_occupancy(inputs, decision):
    """The decision with `active` recomputed from its starts, the running
    jobs and its terminations, and the realized peak."""
    r, classes = inputs.state.stage, inputs.classes
    active = np.zeros(len(inputs.extended_window()), dtype=np.int64)
    for (i, o), n in np.ndenumerate(decision.starts):
        active[o:o + classes[i].runtime] += classes[i].servers * n
    for (c, t_b), n in running_of(inputs.state).items():
        active[:t_b + c.runtime - r] += c.servers * (n - decision.terminations.get((c, t_b), 0))
    cfg = inputs.cfg
    peak = max(cfg.slope_mw_per_server * m + cfg.p_idle_mw for m in active[:len(inputs.window())])
    return dataclasses.replace(decision, active=active, peak=peak)


def model_values(model, handles, decision):
    x = np.zeros(model.a.shape[1])
    n_s = decision.starts.size
    x[:n_s] = decision.starts.ravel()
    x[n_s:handles.m0] = [decision.terminations.get(key, 0) for key in handles.terms]
    x[handles.m0:handles.m0 + len(decision.active)] = decision.active
    x[handles.peak] = decision.peak
    x[handles.peak + 1:] = decision.slack
    return x


def scipy_csc(a: CscMatrix) -> sparse.csc_matrix:
    """scipy's matrix of the record's arrays: an oracle independent of the
    record's own methods."""
    return sparse.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def check_feasible(model: MilpModel, values: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Return descriptions of the columns and rows of `model` that `values`
    violates by more than tol."""
    x = np.asarray(values, dtype=float)
    ax = scipy_csc(model.a) @ x
    bad = [f"column {j} = {x[j]} outside [{model.lb[j]}, {model.ub[j]}]"
           for j in np.flatnonzero((x < model.lb - tol) | (x > model.ub + tol))]
    bad += [f"row {i}: {ax[i]} outside [{model.lo[i]}, {model.hi[i]}]"
            for i in np.flatnonzero((ax < model.lo - tol) | (ax > model.hi + tol))]
    return bad


def test_model_and_recheck_agree_on_perturbed_decisions():
    # the model and validate_decision state the same rules independently:
    # around each solved decision, a +-1 change to any quantity the model
    # has a column for is feasible in one exactly when it is in the other
    seen = {"terms": 0, "truncated": 0, "slack": 0, "accepted": 0, "rejected": 0}
    cases = [random_stage(seed) for seed in range(40)]
    cases.append(make_inputs(
        state_of(3, [C22, C23], queued={C22: 1, C23: 1}), capacity=1, t_end=4,
    ))
    for inputs in cases:
        decision = solve_stage(inputs)
        opened = bool(decision.slack.any())
        model, h = stage_models(inputs)[opened]
        seen["terms"] += bool(h.terms)
        seen["truncated"] += len(inputs.window()) < inputs.horizons.t_h
        seen["slack"] += opened
        # a fractional relaxation's neighbourhood rounds the starts and the
        # terminations: m, PD and slack keep their bounds
        assert np.flatnonzero(~h.rounded).tolist() == list(range(h.m0, model.a.shape[1]))
        assert validate_decision(inputs, decision) == []
        assert check_feasible(model, model_values(model, h, decision)) == []
        changes = (
            [("starts", index) for index in np.ndindex(decision.starts.shape)]
            + [("terminations", key) for key in h.terms]
            + [("slack", (i,)) for i in range(len(inputs.classes)) if opened]
        )
        for field_name, key in changes:
            for delta in (1, -1):
                table = getattr(decision, field_name).copy()
                if field_name == "terminations":
                    table[key] = table.get(key, 0) + delta
                else:
                    table[key] += delta
                changed = with_occupancy(
                    inputs, dataclasses.replace(decision, **{field_name: table})
                )
                ok_model = check_feasible(model, model_values(model, h, changed)) == []
                ok_check = validate_decision(inputs, changed) == []
                assert ok_model == ok_check, (field_name, key, delta)
                seen["accepted" if ok_check else "rejected"] += 1
    assert all(seen.values()), seen


def model_digest(models):
    """sha256 over what HiGHS receives of each model: objective, constant,
    column bounds, row bounds, the matrix (read row-wise) and the
    integrality."""
    h = hashlib.sha256()
    for m in models:
        a = scipy_csc(m.a).tocsr()
        for arr in (m.c, m.constant, m.lb, m.ub, m.lo, m.hi, a.data):
            h.update(np.asarray(arr, dtype=np.float64).tobytes())
        for arr in (m.integer, a.shape, a.indptr, a.indices):
            h.update(np.asarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_stage_model_is_unchanged():
    # the formulation, float for float and in column and row order, as
    # branch-and-bound receives it (compacted): every model of the random
    # stages with the slack closed and opened (they cover terminations,
    # truncated windows and classes with no admissible start), and the
    # offline model of one profile with and without the completion rule
    models = [m for seed in range(40) for m, _ in stage_models(random_stage(seed))]
    assert model_digest(compact(m)[0] for m in models + offline_models()) == (
        "91b644817fcb5b3572cf2be3171d14fc39a0c69e1f759b653735ef45f20483ef"
    )


def offline_models():
    """The offline model of one profile, with and without the completion
    rule."""
    profile = ArrivalProfile(
        {(t, c): (3 * t + c.servers * c.runtime) % 4 for t in range(1, 13) for c in AGREE_CLASSES},
        12,
    )
    capacity = [3 + t % 5 for t in range(12)]
    return [build_offline(profile, capacity, AGREE_CLASSES, require_completion)[0]
            for require_completion in (False, True)]


def assert_same_matrix(a: CscMatrix, oracle: sparse.csc_matrix) -> None:
    """`a` holds scipy's arrays, dtype and bytes, and its shape."""
    assert a.shape == oracle.shape
    for mine, theirs in ((a.indptr, oracle.indptr), (a.indices, oracle.indices),
                         (a.data, oracle.data)):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


def test_builders_return_canonical_column_wise_matrices():
    # HiGHS is handed the matrix's own arrays as column-wise ones: the
    # stage and offline builders and compact must all return canonical CSC
    # with HiGHS's int32 indices
    models = [m for seed in range(8) for m, _ in stage_models(random_stage(seed))]
    models += offline_models()
    for m in models + [compact(m)[0] for m in models]:
        a = m.a
        assert isinstance(a, CscMatrix)
        assert a.indptr.dtype == a.indices.dtype == np.int32 and a.data.dtype == np.float64
        assert len(a.indptr) == a.shape[1] + 1 and a.indptr[0] == 0 and a.indptr[-1] == len(a.data)
        assert scipy_csc(a).has_canonical_format  # each column's rows sorted, none twice


def scipy_compact(m: MilpModel) -> tuple[sparse.csc_matrix, np.ndarray, np.ndarray]:
    """compact's matrix and row bounds, computed with scipy: the column
    slice, the product of the fixed columns and the row subset."""
    oracle = scipy_csc(m.a)
    fixed = m.lb == m.ub
    shift = oracle @ np.where(fixed, m.lb, 0.0)
    lo, hi = m.lo - shift, m.hi - shift
    a = oracle[:, np.flatnonzero(~fixed)]
    empty = a.getnnz(axis=1) == 0
    rows = np.flatnonzero(~((lo == -np.inf) & (hi == np.inf)) & ~(empty & (lo <= 0) & (hi >= 0)))
    return a[rows], lo[rows], hi[rows]


def test_compact_matches_scipy_on_the_random_stages():
    # bit for bit, on every model of the random stages with the slack
    # closed and opened: compact's matrix and row bounds, and the product
    # a @ x
    rng = np.random.default_rng(3)
    for seed in range(40):
        for m, _ in stage_models(random_stage(seed)):
            sub, _ = compact(m)
            a, lo, hi = scipy_compact(m)
            assert_same_matrix(sub.a, a)
            assert sub.lo.tobytes() == lo.tobytes() and sub.hi.tobytes() == hi.tobytes()
            x = rng.normal(size=m.a.shape[1]) * 1e3
            assert (m.a @ x).tobytes() == (scipy_csc(m.a) @ x).tobytes()
