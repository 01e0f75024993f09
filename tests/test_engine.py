import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus

from conftest import drop_kept_highs, fresh_highs, running_of, state_of
from oracle_offline import TinyInstance, brute_force_goodput, random_instance

import dcsched.engine
import dcsched.milp
import dcsched.stage
from dcsched.core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    check_state,
)
from dcsched.engine import (
    RunAborted,
    advance_state,
    assemble_inputs,
    goodput_components,
    run,
    write_trajectory_csv,
)
from dcsched.signals import SignalSeries, constant_capacity, synthetic_carbon
from dcsched.traces import sample_arrivals, synthetic_jobs

C11 = JobClass(1, 1)
C12 = JobClass(1, 2)
C22 = JobClass(2, 2)
C23 = JobClass(2, 3)

CFG4 = DCConfig(total_servers=4, p_peak_mw=10.0, p_idle_mw=2.0)

INSTANCE_A = ArrivalProfile({(1, C11): 2, (1, C22): 1, (3, C11): 1}, 4)


def hz(t_h, t_j=None, t_c=None):
    return HorizonConfig(t_h=t_h, t_j=t_j or t_h, t_c=t_c or t_h)


def carbon_series(t_end):
    return SignalSeries("carbon", tuple(100.0 for _ in range(t_end)))


# ---------------------------------------------------------------- assemble


def test_assemble_truth_at_current_hour_only_with_tj_1():
    state = state_of(1, (C11, C22))
    inputs = assemble_inputs(
        1, state, CFG4, INSTANCE_A.table((C11, C22)), constant_capacity(4, 4),
        carbon_series(4), hz(4, t_j=1), ObjectiveWeights(),
    )
    # arrivals beyond the job-forecast horizon are invisible
    assert inputs.job_forecast.tolist() == [[2, 0, 0, 0], [1, 0, 0, 0]]


def test_assemble_full_job_visibility():
    state = state_of(1, (C11, C22))
    inputs = assemble_inputs(
        1, state, CFG4, INSTANCE_A.table((C11, C22)), constant_capacity(4, 4),
        carbon_series(4), hz(4), ObjectiveWeights(),
    )
    assert inputs.job_forecast.tolist() == [[2, 0, 1, 0], [1, 0, 0, 0]]


def test_arrival_table_rows_follow_the_classes():
    assert INSTANCE_A.table((C22, C11)).tolist() == [[1, 0, 0, 0], [2, 0, 1, 0]]
    with pytest.raises(DomainError, match="outside declared class set"):
        INSTANCE_A.table((C11,))


def test_assemble_capacity_held_at_forecast_edge():
    state = state_of(1, (C11,))
    truth = SignalSeries("capacity", (4.0, 3.0, 2.0, 1.0))
    forecast = SignalSeries("capacity", (4.0, 4.0, 3.0, 1.0))
    inputs = assemble_inputs(
        1, state, CFG4, np.zeros((1, 4), dtype=int), truth,
        carbon_series(4), hz(4, t_c=2), ObjectiveWeights(),
        capacity_forecast=forecast,
    )
    # hour 1 is the realized truth; hours past t_c hold the edge forecast
    assert inputs.capacity_forecast.tolist() == [4, 4, 4, 4]


def test_assemble_carbon_truth_now_forecast_later():
    state = state_of(1, (C12,))
    truth = SignalSeries("carbon", (100.0, 100.0, 100.0, 100.0))
    forecast = SignalSeries("carbon", (55.0, 66.0, 77.0, 88.0))
    inputs = assemble_inputs(
        1, state, CFG4, np.zeros((1, 4), dtype=int), constant_capacity(4, 4),
        truth, hz(4), ObjectiveWeights(), carbon_forecast=forecast,
    )
    ext = inputs.extended_window()
    assert ext == [1, 2, 3, 4, 5]
    # hour 1 is the truth; past the series end the forecast persists at
    # its last value
    assert inputs.carbon_forecast.tolist() == [100.0, 66.0, 77.0, 88.0, 88.0]


def test_assemble_window_truncated_at_t_end():
    state = state_of(3, (C11,))
    inputs = assemble_inputs(
        3, state, CFG4, np.zeros((1, 4), dtype=int), constant_capacity(4, 4),
        carbon_series(4), hz(4), ObjectiveWeights(),
    )
    assert inputs.window() == [3, 4]
    assert inputs.job_forecast.shape == (1, 2)


# ---------------------------------------------------------------- advance


def test_advance_start_becomes_running():
    state = state_of(1, (C22,))
    decision = StageDecision(starts=np.array([[1, 0]]))  # one start at hour 1
    new = advance_state(state, decision, np.array([1]))
    assert new.stage == 2
    assert running_of(new) == {(C22, 1): 1}
    assert new.queued.get(C22, 0) == 0
    assert new.n_arrived.tolist() == [1]


def test_advance_one_hour_job_completes_directly():
    state = state_of(1, (C11,))
    decision = StageDecision(starts=np.array([[2]]))
    new = advance_state(state, decision, np.array([2]))
    assert running_of(new) == {}
    assert new.completed == {C11: 2}


def test_advance_running_job_completes_at_deadline():
    # a (2,2) job started at hour 1 finishes during hour 2
    state = state_of(2, (C22,), running={(C22, 1): 1}, arrived={C22: 1})
    decision = StageDecision(starts=np.zeros((1, 1), dtype=int))
    new = advance_state(state, decision, np.zeros(1, dtype=int))
    assert running_of(new) == {}
    assert new.completed == {C22: 1}


def test_advance_termination_requeues_job():
    state = state_of(2, (C23,), running={(C23, 1): 1}, arrived={C23: 1})
    decision = StageDecision(starts=np.zeros((1, 1), dtype=int), terminations={(C23, 1): 1})
    new = advance_state(state, decision, np.zeros(1, dtype=int))
    assert running_of(new) == {}
    assert new.queued == {C23: 1}
    assert new.completed == {}


def test_advance_rejects_overtermination():
    state = state_of(2, (C23,), running={(C23, 1): 1}, arrived={C23: 1})
    decision = StageDecision(starts=np.zeros((1, 1), dtype=int), terminations={(C23, 1): 2})
    with pytest.raises(DomainError):
        advance_state(state, decision, np.zeros(1, dtype=int))


def test_advance_rejects_unknown_termination():
    state = state_of(2, (C22, C23), running={(C23, 1): 1}, arrived={C23: 1})
    decision = StageDecision(starts=np.zeros((2, 1), dtype=int), terminations={(C22, 1): 1})
    with pytest.raises(DomainError):
        advance_state(state, decision, np.zeros(2, dtype=int))


def test_advance_rejects_a_negative_termination():
    # terminating -1 of the (2,3) job started at 1 would move the queued one
    # into that entry: two jobs started at hour 1, one of them never started
    state = state_of(2, (C23,), running={(C23, 1): 1}, queued={C23: 1}, arrived={C23: 2})
    decision = StageDecision(starts=np.zeros((1, 1), dtype=int), terminations={(C23, 1): -1})
    with pytest.raises(DomainError, match="negative count -1"):
        advance_state(state, decision, np.zeros(1, dtype=int))


def test_advance_rejects_start_of_unqueued_job():
    state = state_of(1, (C11,))
    decision = StageDecision(starts=np.array([[1]]))
    with pytest.raises(DomainError):
        advance_state(state, decision, np.zeros(1, dtype=int))


def test_advance_rejects_starts_of_another_class_count():
    decision = StageDecision(starts=np.array([[1]]))
    with pytest.raises(ValueError):
        advance_state(state_of(1, (C11, C22)), decision, np.array([1, 0]))


def test_advance_rejects_arrivals_of_another_class_count():
    decision = StageDecision(starts=np.array([[1], [0]]))
    with pytest.raises(ValueError):
        advance_state(state_of(1, (C11, C22)), decision, np.array([1]))


# ---------------------------------------------------------------- full runs


def test_instance_a_replay_matches_offline():
    traj = run(
        CFG4, INSTANCE_A, (C11, C22), constant_capacity(4, 4),
        carbon_series(4), hz(4), ObjectiveWeights(),
    )
    completed, wasted = goodput_components(traj)
    assert completed == 7
    assert wasted == 0
    assert traj.active_series() == [4, 2, 1, 0]
    assert traj.final_state.queued in ({}, {C11: 0, C22: 0})
    assert sum(traj.final_state.queued.values()) == 0


def test_run_rejects_undeclared_class():
    with pytest.raises(DomainError):
        run(CFG4, INSTANCE_A, (C11,), constant_capacity(4, 4),
            carbon_series(4), hz(4), ObjectiveWeights())


def test_run_rejects_short_capacity_series():
    with pytest.raises(DomainError):
        run(CFG4, INSTANCE_A, (C11, C22), constant_capacity(4, 2),
            carbon_series(4), hz(4), ObjectiveWeights())


def test_myopic_horizon_still_conserves_jobs():
    traj = run(
        CFG4, INSTANCE_A, (C11, C22), constant_capacity(4, 4),
        carbon_series(4), hz(2), ObjectiveWeights(),
    )
    final = traj.final_state
    for c in (C11, C22):
        total = (
            final.queued.get(c, 0)
            + final.completed.get(c, 0)
            + final.running_by_class().get(c, 0)
        )
        assert total == INSTANCE_A.totals().get(c, 0)


def test_random_instances_complete_and_stay_bounded():
    rng = np.random.default_rng(11)
    for _ in range(5):
        inst = random_instance(rng)
        profile = inst.profile()
        classes = inst.classes()
        cap = SignalSeries("capacity", tuple(float(v) for v in inst.capacity))
        traj = run(
            CFG4, profile, classes, cap, carbon_series(inst.t_end),
            hz(inst.t_end), ObjectiveWeights(),
        )
        for rec in traj.records:
            assert rec.active <= inst.capacity[rec.hour - 1]
        check_state(traj.final_state)


def test_capacity_drop_causes_termination_and_requeue():
    # one (2,3) job starts at hour 1, then the realized capacity drops to 1
    # at hour 2 and stays there: the job must be terminated, never restarted
    profile = ArrivalProfile({(1, C23): 1}, 4)
    cap = SignalSeries("capacity", (4.0, 1.0, 1.0, 1.0))
    traj = run(
        CFG4, profile, (C23,), cap, carbon_series(4), hz(2),
        ObjectiveWeights(),
        capacity_forecast=constant_capacity(4, 4),
    )
    assert traj.total_terminations() == 1
    assert traj.wasted_server_hours() == 2  # 2 servers for 1 elapsed hour
    assert traj.final_state.completed == {}
    assert traj.records[1].committed_before > cap.at(2)


def test_write_trajectory_csv(tmp_path):
    traj = run(
        CFG4, INSTANCE_A, (C11, C22), constant_capacity(4, 4),
        carbon_series(4), hz(4), ObjectiveWeights(),
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("hour,active_servers,capacity")
    assert len(lines) == 5
    assert lines[1].split(",")[1] == "4"


def test_trajectory_csv_bytes(tmp_path):
    def rec(hour, carbon, starts, terms, objective, gap, status, slack):
        return dcsched.engine.HourRecord(
            hour=hour, active=3 * hour, capacity=4, carbon=carbon, starts=starts,
            terminations=terms, queued_after=hour - 1, committed_before=2, objective=objective,
            gap=gap, status=status, slack=slack, wasted_server_hours=hour - 1)

    traj = dcsched.engine.Trajectory([
        rec(1, 512.3456789, {C11: 2, C22: 1}, {}, -1.5, 0.0, "optimal", {}),
        rec(2, 0.1, {}, {(C22, 1): 1}, 1234567.0, 1.23456e-5, "feasible-gap", {C11: 3}),
    ])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    assert path.read_bytes() == (
        b"hour,active_servers,capacity,carbon_rate,starts,terminations,queued_after,"
        b"committed_before,objective,gap,status,slack_jobs,wasted_server_hours\r\n"
        b"1,3,4,512.346,3,0,0,2,-1.5,0,optimal,0,0\r\n"
        b"2,6,4,0.1,0,1,1,2,1.23457e+06,1.23e-05,feasible-gap,3,1\r\n")


# ------------------------------------------------------------- warm start

STEADY_CLASSES = synthetic_jobs(300, (1, 2, 4), 4, seed=0)


def steady_run(seed, hours=30, t_h=6, weights=ObjectiveWeights(lambda_ce=0.1)):
    """A desk-sized run at constant capacity that never terminates a job:
    every stage has the same constraint matrix."""
    profile = sample_arrivals(STEADY_CLASSES, "small_var", hours, seed=seed)
    return run(
        DCConfig(200, 10.0, 3.0), profile, tuple(sorted(STEADY_CLASSES)),
        constant_capacity(200, hours), synthetic_carbon(hours), hz(t_h), weights,
    )


def outcome(run):
    """The model status and column values of the finished run `run`."""
    return run.getModelStatus(), np.array(run.getSolution().col_value)


@pytest.fixture
def relaxations(monkeypatch):
    """Record each relaxation (a model with no integer column) run through
    `dcsched.milp._scipy_milp` as (given a basis, its outcome, the outcome of
    the same relaxation run cold in a new HiGHS object), each read as the
    run finishes."""
    seen = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, time_limit, gap_tol, basis=None, start=None):
        run = highs(model, time_limit, gap_tol, basis, start=start)
        if not model.integer.any():
            found = outcome(run)
            with fresh_highs():
                cold = outcome(highs(model, time_limit, gap_tol))
            seen.append((basis is not None, found, cold))
        return run

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    return seen


def test_hot_started_relaxations_reach_the_cold_vertex(relaxations):
    traj = steady_run(seed=3)
    assert len(traj.records) == 30
    # every stage has the same matrix, the end-of-run stages too: the first
    # starts from its greedy basis, the others from the basis of the stage
    # before
    assert [given for given, _, _ in relaxations] == [True] * 30
    for _, (status, x), (cold_status, cold_x) in relaxations:
        assert status == cold_status == HighsModelStatus.kOptimal
        np.testing.assert_allclose(x, cold_x, rtol=0, atol=1e-9)


FLEET_CLASSES = synthetic_jobs(48000, (1, 2, 4, 8, 16), 12, seed=0)


class FirstHoursDone(Exception):
    pass


def test_hot_started_fleet_relaxations_reach_the_cold_vertex(relaxations, monkeypatch):
    # the first 8 hours of a 56-hour run at fleet scale: 20,000 servers, 60
    # classes, a 24-hour window that the end of the run does not cut yet
    solve_stage = dcsched.engine.solve_stage

    def first_hours(inputs, **kwargs):
        if inputs.state.stage > 8:
            raise FirstHoursDone
        return solve_stage(inputs, **kwargs)

    monkeypatch.setattr(dcsched.engine, "solve_stage", first_hours)
    hours = 56
    assert len(FLEET_CLASSES) == 60
    with pytest.raises(FirstHoursDone):
        run(DCConfig(20000, 100.0, 30.0), sample_arrivals(FLEET_CLASSES, "small_var", hours, seed=5),
            tuple(sorted(FLEET_CLASSES)), constant_capacity(20000, hours), synthetic_carbon(hours),
            hz(24), ObjectiveWeights(lambda_ce=0.1, lambda_pd=5.0))
    assert [given for given, _, _ in relaxations] == [True] * 8
    for _, (status, x), (cold_status, cold_x) in relaxations:
        assert status == cold_status == HighsModelStatus.kOptimal
        np.testing.assert_allclose(x, cold_x, rtol=0, atol=1e-9)


def test_highs_receives_the_models_own_column_wise_arrays(monkeypatch):
    # every HiGHS run gets the arrays of the model it solves as they are,
    # not a copy, and the steady stages share one matrix
    models, passed = [], []
    highs = dcsched.milp._scipy_milp

    def recorded(model, *args, **kwargs):
        models.append(model)
        return highs(model, *args, **kwargs)

    class Recorded(dcsched.milp._Highs):
        def passModel(self, *args):
            passed.append(args)
            return super().passModel(*args)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    monkeypatch.setattr(dcsched.milp, "_Highs", Recorded)
    drop_kept_highs(monkeypatch)
    dcsched.stage._stage_matrix.cache_clear()  # no matrix of an earlier run is reused
    traj = steady_run(seed=3)
    assert len(traj.records) == 30
    assert len(passed) == len(models) >= 30
    for model, args in zip(models, passed):
        indptr, indices, data = args[11:14]
        assert indptr is model.a.indptr and indices is model.a.indices and data is model.a.data
    relaxations = [model.a for model in models if not model.integer.any()]
    assert len(relaxations) == 30 and all(a is relaxations[0] for a in relaxations)


def test_relaxations_share_one_highs_object_until_one_is_fractional(monkeypatch):
    # each HiGHS run through `_scipy_milp` as (its kind, whether it made a
    # new object): the relaxations run in the one object this thread keeps,
    # until a fractional one releases it for branch-and-bound, which makes
    # an object for each of its runs
    made, runs = [], []
    highs = dcsched.milp._scipy_milp

    class Counted(dcsched.milp._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)

    def counted(model, *args, **kwargs):
        before = len(made)
        run = highs(model, *args, **kwargs)
        runs.append(("MILP" if model.integer.any() else "LP", len(made) - before))
        return run

    monkeypatch.setattr(dcsched.milp, "_Highs", Counted)
    monkeypatch.setattr(dcsched.milp, "_scipy_milp", counted)
    drop_kept_highs(monkeypatch)
    # 30 hours on one matrix, every relaxation integral: one object
    steady_run(seed=3)
    assert runs == [("LP", 1)] + [("LP", 0)] * 29
    assert len(made) == 1
    # the relaxation of hour 5 is fractional: its neighbourhood gets an
    # object of its own, and hour 6 makes the relaxation object anew
    made.clear(), runs.clear()
    drop_kept_highs(monkeypatch)
    steady_run(seed=5, weights=ObjectiveWeights(lambda_ce=0.1, lambda_pd=1.0))
    assert runs == [("LP", 1)] + [("LP", 0)] * 4 + [("MILP", 1), ("LP", 1)] + [("LP", 0)] * 24
    assert len(made) == 3


def test_basis_is_kept_per_run(monkeypatch):
    records = []
    solve_stage = dcsched.engine.solve_stage

    def recorded(*args, warm, **kwargs):
        records.append(warm)
        return solve_stage(*args, warm=warm, **kwargs)

    monkeypatch.setattr(dcsched.engine, "solve_stage", recorded)
    first = steady_run(seed=3)
    steady_run(seed=4)
    again = steady_run(seed=3)
    assert again == first
    # one record carried through each run, and a fresh one for the next run
    runs = [records[i * 30:(i + 1) * 30] for i in range(3)]
    assert len(records) == 90
    assert all(all(warm is run_records[0] for warm in run_records) for run_records in runs)
    assert len({id(run_records[0]) for run_records in runs}) == 3
