import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from dcsched.milp import WarmStart, check_feasible, compact
from dcsched.core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    SystemState,
    power_of,
)
from dcsched.offline import build_offline
from dcsched.stage import (
    StageError,
    StageInputs,
    build_stage,
    solve_stage,
    stage_emissions,
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
    classes,
    job_forecast=None,
    capacity=4,
    carbon=None,
    weights=None,
    t_h=4,
    t_end=None,
    cfg=CFG,
):
    hz = HorizonConfig(t_h=t_h, t_j=t_h, t_c=t_h)
    r = state.stage
    l_max = max(c.runtime for c in classes)
    last = r + t_h - 1 if t_end is None else min(r + t_h - 1, t_end)
    cap = {t: capacity for t in range(r, last + 1)}
    ext_last = last + l_max - 1
    car = carbon or {t: 0.0 for t in range(r, ext_last + 1)}
    return StageInputs(
        cfg=cfg,
        state=state,
        classes=tuple(classes),
        job_forecast=job_forecast or {},
        capacity_forecast=cap,
        carbon_forecast=car,
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
    state = SystemState(stage=1)
    inputs = make_inputs(state, [C23], carbon=carbon, weights=weights)
    decision = solve_stage(inputs)
    expected = -sum(
        weights.lambda_ce * carbon[t] * CFG.p_idle_mw for t in inputs.extended_window()
    ) - weights.lambda_pd * CFG.p_idle_mw
    assert decision.objective == pytest.approx(expected)
    assert decision.starts == {}
    assert decision.peak == pytest.approx(CFG.p_idle_mw)


def test_queued_job_starts_immediately_without_weights():
    state = SystemState(stage=1, queued={C11: 1}, arrived={C11: 1})
    inputs = make_inputs(state, [C11])
    decision = solve_stage(inputs)
    assert decision.starts == {(C11, 1): 1}
    assert decision.active[1] == 1


def test_forecast_dip_does_not_force_termination():
    # a (2,3) job started at hour 1 is still running at stage 2; the
    # forecast says capacity collapses later, but the hour-2 truth is fine
    state = SystemState(stage=2, running={(C23, 1): 1}, arrived={C23: 1})
    inputs = make_inputs(state, [C23], capacity=0)
    cap = dict(inputs.capacity_forecast)
    cap[2] = 2
    inputs = StageInputs(
        cfg=inputs.cfg,
        state=state,
        classes=inputs.classes,
        job_forecast={},
        capacity_forecast=cap,
        carbon_forecast=inputs.carbon_forecast,
        weights=inputs.weights,
        horizons=inputs.horizons,
    )
    decision = solve_stage(inputs)
    assert decision.terminations == {}
    assert decision.active[2] == 2
    assert decision.active[3] == 2


def test_realized_shortfall_forces_termination():
    # same running job, but the hour-2 truth only offers one server
    state = SystemState(stage=2, running={(C23, 1): 1}, arrived={C23: 1})
    inputs = make_inputs(state, [C23], capacity=1)
    decision = solve_stage(inputs)
    assert decision.terminations == {(C23, 1): 1}
    assert decision.active[2] == 0


def test_carbon_weight_shifts_start_to_cleaner_hour():
    # the clearance constraint forces the queued job to start somewhere in
    # the window, but leaves the hour free; carbon pricing moves it
    carbon_by_hour = {1: 100.0, 2: 100.0, 3: 500.0, 4: 10.0}
    state = SystemState(stage=1, queued={C11: 1}, arrived={C11: 1})

    greedy = solve_stage(make_inputs(state, [C11], carbon=carbon_by_hour))
    assert greedy.starts == {(C11, 1): 1}

    aware = solve_stage(make_inputs(state, [C11], carbon=carbon_by_hour,
                                    weights=ObjectiveWeights(lambda_ce=10.0)))
    assert aware.starts == {(C11, 4): 1}


def test_infeasible_clearance_relaxes_with_slack(highs_calls):
    # a 2-server job can never fit on a 1-server facility
    state = SystemState(stage=1, queued={C22: 1}, arrived={C22: 1})
    inputs = make_inputs(state, [C22], capacity=1)
    decision = solve_stage(inputs)
    assert decision.slack == {C22: 1}
    assert decision.starts == {}
    assert not validate_decision(inputs, decision)
    # half the job fits, so both relaxations are fractional: the LP, its
    # neighbourhood and the infeasible MILP of the model, then the LP, its
    # neighbourhood and the MILP with slack. Neither neighbourhood is
    # feasible: the LP leaves the slack at 0 and half the job at two hours
    assert highs_calls == ["LP", "MILP", "MILP"] * 2


def test_slack_is_last_resort():
    # one of two queued jobs fits; slack should only absorb the other
    state = SystemState(stage=1, queued={C11: 1, C22: 1}, arrived={C11: 1, C22: 1})
    inputs = make_inputs(state, [C11, C22], capacity=1)
    decision = solve_stage(inputs)
    assert decision.slack == {C22: 1}
    assert sum(num for (c, _), num in decision.starts.items() if c == C11) == 1


def test_class_that_cannot_finish_gets_no_clearance_slack():
    # with t_end=4 a (2,3) job queued at stage 3 cannot start at all, so it
    # waits; only the (2,2) job, which cannot fit on one server, is relaxed
    state = SystemState(stage=3, queued={C22: 1, C23: 1}, arrived={C22: 1, C23: 1})
    inputs = make_inputs(state, [C22, C23], capacity=1, t_end=4)
    decision = solve_stage(inputs)
    assert decision.slack == {C22: 1}
    assert decision.starts == {}


def test_completable_start_filter_near_t_end():
    # with t_end=4 a 3-hour job may start no later than hour 2
    state = SystemState(stage=1, queued={C23: 1}, arrived={C23: 1})
    inputs = make_inputs(state, [C23], t_end=4)
    model, handles = build_stage(inputs)
    ub = {t: model.ub[j] for j, (c, t) in enumerate(handles.starts) if c == C23}
    assert ub[1] == ub[2] == 1
    assert ub[3] == ub[4] == 0


def matrix_digest(a):
    return hashlib.sha256(a.indptr.tobytes() + a.indices.tobytes() + a.data.tobytes()).hexdigest()


def test_stages_of_a_run_share_one_matrix():
    # a run that ends at hour 7 with a 4-hour window: stages 5-7 see a
    # truncated window, and all of them receive the matrix of stage 1
    rng = random.Random(3)
    stages = []
    for r in range(1, 8):
        running = {(c, t_b): 1 for c in AGREE_CLASSES for t_b in range(max(r - c.runtime + 1, 1), r)
                   if t_b + c.runtime - 1 <= 7 and rng.random() < 0.3}
        state = SystemState(stage=r, running=running,
                            queued={c: rng.randint(0, 2) for c in AGREE_CLASSES})
        forecast = {(c, t): rng.randint(0, 1) for c in AGREE_CLASSES for t in range(r, r + 4)}
        stages.append(make_inputs(state, AGREE_CLASSES, job_forecast=forecast, capacity=12,
                                  t_end=7, weights=ObjectiveWeights(0.01, 1.0), cfg=AGREE_CFG))
    assert len(stages[-1].window()) == 1
    a = build_stage(stages[0])[0].a
    digest = matrix_digest(a)

    # each steady stage gets the same object, and its relaxation starts
    # from the basis the stage before left
    warm = WarmStart()
    for inputs in stages:
        model, h = build_stage(inputs)
        assert not h.terms and model.a is a
        basis = warm.basis_for(model.a)
        assert (basis is None) == (inputs is stages[0])
        assert basis is warm.basis
        solve_stage(inputs, warm=warm)
        assert warm.matrix is a

    # terminations and slack columns change the matrix, and no basis fits it
    state = SystemState(stage=3, running={(C22, 2): 1, (C23, 1): 1}, queued={C11: 1})
    cut = make_inputs(state, AGREE_CLASSES, capacity=1, t_end=7, cfg=AGREE_CFG)
    model, h = build_stage(cut)
    assert h.terms and model.a is not a and warm.basis_for(model.a) is None
    solve_stage(cut, warm=warm)
    slack, h = build_stage(stages[0], with_slack=True)
    assert h.slack and slack.a is not a and slack.a is not model.a
    # the shared matrix was never written to
    assert matrix_digest(a) == digest


def test_validate_decision_reports_what_the_model_has_no_column_for():
    # the run ends at hour 4: at stage 2 the window is hours 2..4, a (1,4)
    # job may not start at all and nothing of (1,1) is there to start; each
    # key below has no model column, and the re-check reports it instead of
    # raising or reading a wrapped or clipped array index
    c14, c13 = JobClass(1, 4), JobClass(1, 3)  # c13 is not a declared class
    state = SystemState(stage=2, running={(C23, 1): 1}, queued={C23: 1}, arrived={C23: 2})
    inputs = make_inputs(state, [C11, C23, c14], capacity=12, t_end=4, cfg=AGREE_CFG)
    decision = solve_stage(inputs)
    assert validate_decision(inputs, decision) == []

    def recheck(field_name, key, num=1):
        table = {**getattr(decision, field_name), key: num}
        return validate_decision(
            inputs, with_occupancy(inputs, dataclasses.replace(decision, **{field_name: table})))

    for t in (2, 1, 5):  # undeclared; at r - 1; past the window
        c = c13 if t == 2 else C11
        for num in (1, 2):
            assert recheck("starts", (c, t), num) == [f"class {c} started at inadmissible hour {t}"]
    assert recheck("terminations", (C11, 1)) == [
        "terminations without a shortfall: 2 <= 12",
        f"terminating 1 of {(C11, 1)}, only 0 running",
    ]
    for c in (c14, c13):
        assert recheck("slack", c) == [f"slack for class {c}, which has no clearance rule"]


def test_peak_weight_flattens_profile():
    # two queued 1-hour jobs: without the peak term both run right away;
    # with a moderate weight they are staggered across two hours
    state = SystemState(stage=1, queued={C11: 2}, arrived={C11: 2})
    flat_free = solve_stage(make_inputs(state, [C11]))
    assert max(flat_free.active.values()) == 2

    flat = solve_stage(make_inputs(state, [C11],
                                   weights=ObjectiveWeights(lambda_pd=1.0)))
    assert max(flat.active.values()) == 1
    assert flat.peak == pytest.approx(power_of(1, CFG))


def test_stage_emissions_matches_hand_computation():
    state = SystemState(stage=1, queued={C11: 1}, arrived={C11: 1})
    carbon = {1: 100.0, 2: 200.0, 3: 300.0, 4: 400.0}
    inputs = make_inputs(state, [C11], carbon=carbon)
    decision = solve_stage(inputs)
    # one active server at hour 1, idle afterwards
    expected = 100.0 * power_of(1, CFG) + (200.0 + 300.0 + 400.0) * power_of(0, CFG)
    assert stage_emissions(inputs, decision) == pytest.approx(expected)


def test_validate_decision_catches_tampering():
    state = SystemState(stage=1, queued={C11: 1}, arrived={C11: 1})
    inputs = make_inputs(state, [C11])
    decision = solve_stage(inputs)
    decision.active[1] += 1
    assert any("mismatch" in v for v in validate_decision(inputs, decision))

    # a start or termination the model has no column for: a (2,3) job
    # cannot start at hour 3 when the run ends at 4, and two held servers
    # fit the capacity, so nothing may be terminated
    state = SystemState(stage=2, running={(C23, 1): 1}, queued={C23: 1}, arrived={C23: 2})
    inputs = make_inputs(state, [C23], t_end=4)
    decision = solve_stage(inputs)
    late = dataclasses.replace(decision, starts={**decision.starts, (C23, 3): 1})
    assert any("inadmissible" in v for v in validate_decision(inputs, late))
    cancelled = dataclasses.replace(decision, terminations={(C23, 1): 1})
    assert any("shortfall" in v for v in validate_decision(inputs, cancelled))


def test_unknown_queued_class_rejected():
    state = SystemState(stage=1, queued={C22: 1}, arrived={C22: 1})
    inputs = make_inputs(state, [C11])
    with pytest.raises(DomainError):
        build_stage(inputs)


def test_objective_is_finite_and_status_optimal():
    state = SystemState(stage=1, queued={C11: 2, C12: 1}, arrived={C11: 2, C12: 1})
    inputs = make_inputs(state, [C11, C12], weights=ObjectiveWeights(lambda_ce=1.0,
                                                                     lambda_pd=1.0),
                         carbon={t: 50.0 for t in range(1, 10)})
    decision = solve_stage(inputs)
    assert decision.status == "optimal"
    assert math.isfinite(decision.objective)
    assert decision.gap <= 1e-4


AGREE_CFG = DCConfig(total_servers=12, p_peak_mw=10.0, p_idle_mw=2.0)
AGREE_CLASSES = (C11, C12, C22, C23)


def random_stage(seed):
    """A small stage with running jobs, a queue, forecast arrivals, a
    capacity that may fall under the running jobs at r, and sometimes an
    end of run inside the window."""
    rng = random.Random(seed)
    r = rng.randint(2, 5)
    running = {
        (c, t_b): 1
        for c in AGREE_CLASSES
        for t_b in range(r - c.runtime + 1, r)
        if rng.random() < 0.6
    }
    queued = {c: rng.randint(0, 2) for c in AGREE_CLASSES}
    state = SystemState(stage=r, running=running, queued=queued)
    hz = HorizonConfig(t_h=4, t_j=4, t_c=4)
    t_end = rng.choice([None, r + 1, r + 2])
    last = r + 3 if t_end is None else t_end
    ts = range(r, last + 1)
    return StageInputs(
        cfg=AGREE_CFG,
        state=state,
        classes=AGREE_CLASSES,
        job_forecast={(c, t): rng.randint(0, 1) for c in AGREE_CLASSES for t in ts},
        capacity_forecast={t: rng.randint(0, 8) for t in ts},
        carbon_forecast={t: float(rng.randint(0, 100)) for t in range(r, last + 3)},
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
    inputs = random_stage(1)
    decision = solve_stage(inputs)
    assert decision.status == "feasible-gap"
    assert decision.gap == first_incumbent[-1].getInfo().mip_gap > 1e-4
    assert validate_decision(inputs, decision) == []


def with_occupancy(inputs, decision):
    """The decision with `active` recomputed from its starts, the running
    jobs and its terminations, and the realized peak."""
    active = {}
    for t in inputs.extended_window():
        m = sum(c.servers * n for (c, t2), n in decision.starts.items() if t2 <= t < t2 + c.runtime)
        m += sum(
            c.servers * (n - decision.terminations.get((c, t_b), 0))
            for (c, t_b), n in inputs.state.running.items()
            if t < t_b + c.runtime
        )
        active[t] = m
    cfg = inputs.cfg
    peak = max(cfg.slope_mw_per_server * active[t] + cfg.p_idle_mw for t in inputs.window())
    return dataclasses.replace(decision, active=active, peak=peak)


def model_values(model, handles, decision):
    x = np.zeros(len(model.variables))
    for vid, key in enumerate(handles.starts):
        x[vid] = decision.starts.get(key, 0)
    for key, vid in handles.terms.items():
        x[vid] = decision.terminations.get(key, 0)
    for c, vid in handles.slack.items():
        x[vid] = decision.slack.get(c, 0)
    for t, vid in handles.active.items():
        x[vid] = decision.active[t]
    x[handles.peak] = decision.peak
    return x


def test_model_and_recheck_agree_on_perturbed_decisions():
    # the model and validate_decision state the same rules independently:
    # around each solved decision, a +-1 change to any quantity the model
    # has a column for is feasible in one exactly when it is in the other
    seen = {"terms": 0, "truncated": 0, "slack": 0, "accepted": 0, "rejected": 0}
    cases = [random_stage(seed) for seed in range(40)]
    cases.append(make_inputs(
        SystemState(stage=3, queued={C22: 1, C23: 1}), [C22, C23], capacity=1, t_end=4,
    ))
    for inputs in cases:
        decision = solve_stage(inputs)
        model, h = build_stage(inputs, with_slack=bool(decision.slack))
        seen["terms"] += bool(h.terms)
        seen["truncated"] += len(inputs.window()) < inputs.horizons.t_h
        seen["slack"] += bool(h.slack)
        # a fractional relaxation's neighbourhood rounds all but m and PD
        assert np.flatnonzero(~h.rounded).tolist() == list(range(min(h.active.values()), h.peak + 1))
        assert validate_decision(inputs, decision) == []
        assert check_feasible(model, model_values(model, h, decision)) == []
        columns = (
            [("starts", key) for key in h.starts]
            + [("terminations", key) for key in h.terms]
            + [("slack", c) for c in h.slack]
        )
        for field_name, key in columns:
            for delta in (1, -1):
                table = dict(getattr(decision, field_name))
                table[key] = table.get(key, 0) + delta
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
    column bounds, row bounds, the CSR matrix and the integrality."""
    h = hashlib.sha256()
    for m in models:
        for arr in (m.c, m.constant, m.lb, m.ub, m.lo, m.hi, m.a.data):
            h.update(np.asarray(arr, dtype=np.float64).tobytes())
        for arr in (m.integer, m.a.shape, m.a.indptr, m.a.indices):
            h.update(np.asarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_stage_model_is_unchanged():
    # the formulation, float for float and in column and row order, as
    # branch-and-bound receives it (compacted): every model of the random
    # stages with and without slack (they cover terminations, truncated
    # windows and classes with no admissible start), and the offline model
    # of one profile with and without the completion rule
    models = [build_stage(random_stage(seed), with_slack=with_slack)[0]
              for seed in range(40) for with_slack in (False, True)]
    profile = ArrivalProfile(
        {(t, c): (3 * t + c.servers * c.runtime) % 4 for t in range(1, 13) for c in AGREE_CLASSES},
        12,
    )
    capacity = [3 + t % 5 for t in range(12)]
    models += [build_offline(profile, capacity, AGREE_CLASSES, require_completion)[0]
               for require_completion in (False, True)]
    assert model_digest(compact(m)[0] for m in models) == (
        "91b644817fcb5b3572cf2be3171d14fc39a0c69e1f759b653735ef45f20483ef"
    )
