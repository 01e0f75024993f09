"""The benchmark in perfbench/ measures each layer by wrapping dcsched's
module bindings from outside. A refactor that renames or bypasses one of
them would silently blind that per-layer view; this test fails instead."""

import importlib.util
from collections import Counter
from pathlib import Path

import dcsched.cli
import dcsched.engine
import dcsched.metrics
import dcsched.milp
import dcsched.offline
import dcsched.stage
import dcsched.traces
from dcsched.core import (
    ArrivalProfile, DCConfig, HorizonConfig, JobClass, ObjectiveWeights, SystemState,
)
from dcsched.signals import SignalSeries, constant_capacity
from conftest import state_of
from test_milp import dense_model
from test_stage import make_inputs

WRAPPED = {
    dcsched.milp: ["_scipy_milp", "solve"],
    dcsched.stage: ["solve", "build_stage", "validate_decision"],
    dcsched.engine: ["solve_stage", "check_state", "advance_state", "assemble_inputs", "run"],
    dcsched.offline: ["solve", "build_offline", "solve_offline"],
    dcsched.cli: ["main", "run", "summary_row", "load_config", "synthetic_jobs",
                  "sample_arrivals", "capacity_walk", "noisy_forecast"],
    dcsched.metrics: ["total_emissions", "peak_power", "goodput"],
    dcsched.traces: ["synthetic_jobs", "sample_arrivals"],
}


def test_perfbench_bindings_exist_and_carry_every_solver_call(highs_calls):
    for module, names in WRAPPED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # the stage and the offline model are solved through the one solve
    assert dcsched.stage.solve is dcsched.milp.solve
    assert dcsched.offline.solve is dcsched.milp.solve
    assert callable(SystemState.running_by_class)

    model = dense_model([1.0], [([2.0], "<=", 7)])
    assert model.variables[0].kind == "integer"
    assert model.constraints[0].coeffs == {0: 2.0}

    # a fractional relaxation takes two runs of the one binding, the LP and
    # the MILP
    assert dcsched.stage.solve(model).values[0] == 3
    assert highs_calls == ["LP", "MILP"]


def test_model_size_view_of_a_fleet_stage():
    # perfbench counts model size through these views: a steady stage of
    # 60 job classes with a 24-hour window
    classes = [JobClass(k, l) for k in (1, 2, 4, 8, 16) for l in range(1, 13)]
    inputs = make_inputs(state_of(1, classes), capacity=20000, t_h=24,
                         cfg=DCConfig(20000, 100.0, 30.0))
    model, _ = dcsched.stage.build_stage(inputs)
    assert len(model.variables) == 1536
    assert sum(v.kind == "integer" for v in model.variables) == 1535
    assert len(model.constraints) == 1583
    assert sum(len(c.coeffs) for c in model.constraints) == 28967


def test_model_size_view_of_a_fleet_offline_model():
    # perfbench's offline bound: the same 60 classes over a 56-hour episode,
    # every start finishing by its end
    classes = [JobClass(k, l) for k in (1, 2, 4, 8, 16) for l in range(1, 13)]
    profile = ArrivalProfile({(t, c): 1 for t in range(1, 57) for c in classes}, 56)
    model, _ = dcsched.offline.build_offline(profile, [20000] * 56, classes,
                                             require_completion=True)
    assert len(model.variables) == 3030
    assert sum(v.kind == "integer" for v in model.variables) == 3030
    assert len(model.constraints) == 3416
    assert sum(len(c.coeffs) for c in model.constraints) == 113310


def test_perfbench_reads_a_written_profile_and_its_offline_bound(tmp_path, monkeypatch):
    # the desk workload re-reads each scenario's profile from the CSV
    # `gen-signals` writes, over the sweep's hours, and solves its offline
    # bound keeping the gap HiGHS reports (workloads.solve_offline_bound);
    # no job arrives in the last hour, so the file alone gives 5 hours
    c11, c23 = JobClass(1, 1), JobClass(2, 3)
    path = tmp_path / "profile.csv"
    dcsched.traces.write_profile_csv(
        ArrivalProfile({(1, c11): 2, (1, c23): 1, (2, c23): 2, (5, c11): 1}, 6),
        str(path))
    profile = ArrivalProfile(dcsched.traces.load_profile_csv(str(path)).counts, 6)
    assert profile.horizon == 6
    assert profile.totals() == {c11: 3, c23: 3}
    assert profile.classes() == {c11, c23}

    gaps = []
    solve = dcsched.offline.solve

    def keep_gap(*args, **kwargs):
        res = solve(*args, **kwargs)
        gaps.append(res.gap)
        return res

    monkeypatch.setattr(dcsched.offline, "solve", keep_gap)
    schedule = dcsched.offline.solve_offline(profile, [4] * 6, tuple(sorted(profile.classes())),
                                             require_completion=True, gap_tol=1e-4)
    # every job fits on the 4 servers by hour 6: three (2, 3) jobs of 6
    # server-hours and three 1-hour jobs
    assert schedule.goodput == 3 * 6 + 3
    assert len(gaps) == 1 and 0 <= gaps[0] <= 1e-4


def test_every_stage_goes_through_the_wrapped_bindings(monkeypatch):
    # perfbench's per-layer spans see a layer only if the loop calls it
    # through these module attributes; count every call a small run makes
    calls = Counter()

    def counter(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (dcsched.milp, dcsched.stage, dcsched.engine):
        for name in WRAPPED[module]:
            monkeypatch.setattr(module, name, counter((module.__name__, name), getattr(module, name)))

    c11, c23 = JobClass(1, 1), JobClass(2, 3)
    profile = ArrivalProfile({(1, c11): 2, (1, c23): 1, (2, c23): 2, (4, c11): 1}, 6)
    traj = dcsched.engine.run(DCConfig(4, 10.0, 2.0), profile, (c11, c23), constant_capacity(4, 6),
                              SignalSeries("carbon", (100.0,) * 6), HorizonConfig(3, 3, 3),
                              ObjectiveWeights(0.01, 1.0))
    hours = len(traj.records)
    assert hours == 6
    for name in ("assemble_inputs", "solve_stage", "advance_state", "check_state"):
        assert calls["dcsched.engine", name] == hours, name
    assert calls["dcsched.stage", "validate_decision"] == hours
    for key in (("dcsched.stage", "build_stage"), ("dcsched.stage", "solve"),
                ("dcsched.milp", "_scipy_milp")):
        assert calls[key] >= hours, key
    assert calls["dcsched.engine", "run"] == 1


def perfbench_checks():
    """perfbench/checks.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_reads_decisions_records_and_the_final_state(monkeypatch):
    # perfbench reads each decision's terminations as a mapping (its
    # stage.terminations count), and checks.check_trajectory reads each
    # record's terminations, active and committed_before and the final
    # state's queued and completed views as mappings; a run with a
    # termination
    terminated, keyed = [], []
    solve_stage = dcsched.engine.solve_stage

    def observed(*args, **kwargs):
        decision = solve_stage(*args, **kwargs)
        terminated.append(sum(decision.terminations.values()))
        keyed.extend((t_b, num) for (_, t_b), num in decision.terminations.items())
        return decision

    monkeypatch.setattr(dcsched.engine, "solve_stage", observed)
    c11, c23 = JobClass(1, 1), JobClass(2, 3)
    profile = ArrivalProfile({(1, c11): 2, (1, c23): 1, (3, c11): 1}, 4)
    capacity = SignalSeries("capacity", (4.0, 1.0, 1.0, 1.0))
    traj = dcsched.engine.run(DCConfig(4, 10.0, 2.0), profile, (c11, c23), capacity,
                              SignalSeries("carbon", (100.0,) * 4), HorizonConfig(2, 2, 2),
                              ObjectiveWeights(), capacity_forecast=constant_capacity(4, 4))
    assert terminated == [0, 1, 0, 0]
    assert perfbench_checks().check_trajectory(traj, profile, capacity) == []
    cut = traj.records[1]
    assert (cut.terminations, cut.active, cut.committed_before) == ({(c23, 1): 1}, 0, 2)
    state = traj.final_state
    assert (state.queued.get(c23), state.completed.get(c11), state.running_by_class()) == (1, 3, {})
    # the edge values are plain ints, not numpy scalars, so that their
    # reprs (and digests of them) do not depend on the state's layout
    keyed += [(t_b, num) for rec in traj.records for (_, t_b), num in rec.terminations.items()]
    assert len(keyed) == 2
    values = [v for pair in keyed for v in pair]
    values += [num for rec in traj.records for table in (rec.starts, rec.slack)
               for num in table.values()]
    values += list(state.queued.values()) + list(state.completed.values())
    assert all(type(v) is int for v in values), [type(v) for v in values]
