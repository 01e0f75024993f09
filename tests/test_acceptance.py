"""End-to-end acceptance suite.

One test per acceptance criterion. These are slower than the unit tests
(several minutes total) because most of them run the full receding-horizon
loop at desk scale (200 servers) or time a production-scale stage solve.
"""

import os
import time

import numpy as np
import pytest

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
from dcsched.engine import advance_state, goodput_components, run
from dcsched.metrics import peak_power, total_emissions, volatility
from dcsched.offline import solve_offline
from dcsched.signals import (
    SignalSeries,
    constant_capacity,
    noisy_forecast,
    synthetic_carbon,
)
from dcsched.stage import StageInputs, solve_stage
from dcsched.traces import sample_arrivals, synthetic_jobs

from conftest import running_of, state_of
from oracle_offline import brute_force_goodput, random_instance
from test_stage import stage_emissions

DESK = DCConfig(total_servers=200, p_peak_mw=100.0, p_idle_mw=30.0)
DESK_HOURS = 72


# ---------------------------------------------------------------------------
# shared desk-scale runs (criteria 4 and 5 read different columns of the
# same lambda sweep)

_desk_cache: dict[tuple[float, float], object] = {}


def desk_run(lambda_ce: float, lambda_pd: float):
    key = (lambda_ce, lambda_pd)
    if key not in _desk_cache:
        totals = synthetic_jobs(300, k_buckets=(1, 2, 4), max_runtime_hours=8, seed=1)
        profile = sample_arrivals(totals, "uniform", DESK_HOURS, seed=1)
        _desk_cache[key] = run(
            DESK,
            profile,
            tuple(sorted(totals)),
            constant_capacity(200, DESK_HOURS),
            synthetic_carbon(DESK_HOURS + 8),
            HorizonConfig(24, 24, 24),
            ObjectiveWeights(lambda_ce=lambda_ce, lambda_pd=lambda_pd),
        )
    return _desk_cache[key]


# ---------------------------------------------------------------------------
# criterion 1: offline MILP matches an exhaustive oracle on tiny instances


def test_c1_offline_matches_oracle():
    rng = np.random.default_rng(11)
    t0 = time.time()
    checked = 0
    for _ in range(24):
        inst = random_instance(rng)
        oracle = brute_force_goodput(inst)
        sched = solve_offline(inst.profile(), inst.capacity, inst.classes())
        assert sched.goodput == oracle, f"{inst}: milp {sched.goodput} != oracle {oracle}"
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 1: PASS - {checked} tiny instances match the oracle exactly "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: receding-horizon goodput never exceeds the offline optimum,
# and equals it under full visibility on clearable instances


def _rh_completed(inst, horizons, weights) -> int:
    traj = run(
        DCConfig(total_servers=max(inst.capacity), p_peak_mw=10.0, p_idle_mw=2.0),
        inst.profile(),
        inst.classes(),
        SignalSeries("capacity", tuple(float(v) for v in inst.capacity)),
        synthetic_carbon(inst.t_end + 4),
        horizons,
        weights,
    )
    completed, _ = goodput_components(traj)
    return completed


def test_c2_offline_is_an_upper_bound():
    rng = np.random.default_rng(11)
    settings = [
        (HorizonConfig(2, 2, 2), ObjectiveWeights()),
        (HorizonConfig(3, 1, 3), ObjectiveWeights()),
        (HorizonConfig(4, 4, 4), ObjectiveWeights(lambda_ce=1.0)),
        (HorizonConfig(4, 4, 4), ObjectiveWeights(lambda_pd=1.0)),
    ]
    for _ in range(20):
        inst = random_instance(rng)
        offline = brute_force_goodput(inst)
        for horizons, weights in settings:
            completed = _rh_completed(inst, horizons, weights)
            assert completed <= offline, (inst, horizons, weights)

    # clearable instances + full visibility + lambda = 0: exact equality
    rng = np.random.default_rng(12)
    equal = 0
    for _ in range(20):
        inst = random_instance(rng, clearable=True)
        offline = brute_force_goodput(inst)
        full = HorizonConfig(inst.t_end, inst.t_end, inst.t_end)
        completed = _rh_completed(inst, full, ObjectiveWeights())
        assert completed == offline == inst.total_server_hours(), inst
        equal += 1
    print(f"\ncriterion 2: PASS - goodput bounded on 20 instances x 4 settings; "
          f"equality on {equal}/20 clearable instances under full visibility")


# ---------------------------------------------------------------------------
# criterion 3: conservation and commitment identities over >= 10^4 fuzzed
# transitions (advance_state itself asserts both; check_state re-verifies),
# each matched by a reference transition on dict tables


def reference_step(tables, r, classes, starts, terminations, arrivals):
    """The hour-r state step on dict tables: running by (class, start
    hour), queued and completed by class. A terminated job is requeued, a
    running job completes in its hour t_b + runtime - 1, and a 1-hour job
    started at r completes at once. Returns the tables of the nonzero
    counts at r + 1."""
    running, queued, completed = (dict(table) for table in tables)
    for (c, t_b), num in terminations.items():
        running[(c, t_b)] -= num
        queued[c] = queued.get(c, 0) + num
    for c, t_b in list(running):
        if t_b + c.runtime - 1 == r:
            completed[c] = completed.get(c, 0) + running.pop((c, t_b))
    for c, num, arrived in zip(classes, starts.tolist(), arrivals.tolist()):
        queued[c] = queued.get(c, 0) + arrived - num
        if c.runtime == 1:
            completed[c] = completed.get(c, 0) + num
        else:
            running[(c, r)] = num
    return tuple({key: num for key, num in table.items() if num}
                 for table in (running, queued, completed))


def test_c3_conservation_under_fuzzing():
    rng = np.random.default_rng(5)
    classes = tuple(
        JobClass(k, l) for k in (1, 2, 3) for l in (1, 2, 3, 4)
    )
    transitions = 0
    episodes = 0
    while transitions < 10_000:
        episodes += 1
        state = state_of(1, classes)
        reference = ({}, {}, {})
        for _ in range(int(rng.integers(5, 30))):
            r = state.stage
            arrivals = np.zeros(len(classes), dtype=np.int64)
            for i in range(len(classes)):
                if rng.random() < 0.25:
                    arrivals[i] = int(rng.integers(1, 4))
            # random feasible starts from queue + fresh arrivals
            starts = np.zeros((len(classes), 1), dtype=np.int64)
            for i, c in enumerate(classes):
                avail = state.queued.get(c, 0) + int(arrivals[i])
                if avail and rng.random() < 0.7:
                    starts[i, 0] = int(rng.integers(0, avail + 1))
            # random terminations of currently running jobs
            terms = {}
            for (c, t_b), num in reference[0].items():
                if rng.random() < 0.2:
                    terms[(c, t_b)] = int(rng.integers(0, num + 1))
            decision = StageDecision(starts=starts, terminations=terms)
            state = advance_state(state, decision, arrivals)
            check_state(state)
            reference = reference_step(reference, r, classes, starts[:, 0], terms, arrivals)
            assert (running_of(state), state.queued, state.completed) == reference
            transitions += 1
    print(f"\ncriterion 3: PASS - {transitions} fuzzed transitions over "
          f"{episodes} episodes, zero conservation violations, each equal to "
          f"the dict-keyed reference")


# ---------------------------------------------------------------------------
# criterion 4: pricing carbon cuts CO2 by >= 1% and raises volatility


def test_c4_carbon_pricing_direction():
    carbon = synthetic_carbon(DESK_HOURS + 8)
    base = desk_run(0.0, 0.0)
    priced = desk_run(0.1, 0.0)
    co2_base = total_emissions(base, carbon, DESK)
    co2_priced = total_emissions(priced, carbon, DESK)
    drop = (co2_base - co2_priced) / co2_base
    assert drop >= 0.01, f"CO2 drop {drop:.2%} below 1%"
    vol_base = volatility(base.active_series(), DESK_HOURS)
    vol_priced = volatility(priced.active_series(), DESK_HOURS)
    assert vol_priced > vol_base
    print(f"\ncriterion 4: PASS - CO2 {co2_base:.0f} -> {co2_priced:.0f} kg "
          f"({drop:.1%} drop), sigma(m) {vol_base:.2f} -> {vol_priced:.2f}")


# ---------------------------------------------------------------------------
# criterion 5: a peak charge caps the realized peak and flattens a CE run


def test_c5_peak_charge_direction():
    base = desk_run(0.0, 0.0)
    pd_only = desk_run(0.0, 5.0)
    ce_only = desk_run(0.1, 0.0)
    ce_pd = desk_run(0.1, 5.0)
    peak_base = peak_power(base, DESK)
    peak_pd = peak_power(pd_only, DESK)
    assert peak_pd <= peak_base
    vol_ce = volatility(ce_only.active_series(), DESK_HOURS)
    vol_ce_pd = volatility(ce_pd.active_series(), DESK_HOURS)
    assert vol_ce_pd < vol_ce
    print(f"\ncriterion 5: PASS - peak {peak_base:.1f} -> {peak_pd:.1f} MW; "
          f"sigma(m) CE {vol_ce:.2f} -> CE+PD {vol_ce_pd:.2f}")


# ---------------------------------------------------------------------------
# criterion 6: single-stage Pareto monotonicity at exact optima


def _random_stage_inputs(rng: np.random.Generator, weights: ObjectiveWeights) -> StageInputs:
    classes = tuple(
        JobClass(int(k), int(l))
        for k, l in {(rng.integers(1, 4), rng.integers(1, 5)) for _ in range(3)}
    )
    r, t_h = 1, 6
    t_end = 12
    queued = {c: int(rng.integers(0, 4)) for c in classes}
    state = state_of(r, classes, queued=queued, arrived=queued)
    cap = int(rng.integers(4, 10))
    job_fc = np.zeros((len(classes), t_h), dtype=np.int64)
    for i in range(len(classes)):
        for o in range(t_h):
            if rng.random() < 0.3:
                job_fc[i, o] = int(rng.integers(1, 3))
    carbon = [float(rng.uniform(100, 900)) for _ in range(r, t_end + 5)]
    n_ext = t_h + max(c.runtime for c in classes) - 1
    return StageInputs(
        cfg=DCConfig(total_servers=10, p_peak_mw=10.0, p_idle_mw=2.0),
        state=state,
        job_forecast=job_fc,
        capacity_forecast=np.full(t_h, cap),
        carbon_forecast=np.array(carbon[:n_ext]),
        weights=weights,
        horizons=HorizonConfig(t_h=t_h, t_j=t_h, t_c=t_h),
        t_end=t_end,
    )


def test_c6_single_stage_pareto_monotonicity():
    import dataclasses

    lambda_ces = [0.0, 1.0, 10.0, 100.0]
    lambda_pds = [0.0, 1.0, 10.0, 100.0]
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        probe = _random_stage_inputs(rng, ObjectiveWeights())
        ce_curve = []
        for lam in lambda_ces:
            inputs = dataclasses.replace(probe, weights=ObjectiveWeights(lambda_ce=lam))
            decision = solve_stage(inputs, gap_tol=1e-9)
            ce_curve.append(stage_emissions(inputs, decision))
        for a, b in zip(ce_curve, ce_curve[1:]):
            assert b <= a + 1e-6 * max(abs(a), 1.0), (i, ce_curve)
        pd_curve = []
        for lam in lambda_pds:
            inputs = dataclasses.replace(probe, weights=ObjectiveWeights(lambda_pd=lam))
            decision = solve_stage(inputs, gap_tol=1e-9)
            pd_curve.append(decision.peak)
        for a, b in zip(pd_curve, pd_curve[1:]):
            assert b <= a + 1e-6 * max(abs(a), 1.0), (i, pd_curve)
    print("\ncriterion 6: PASS - stage CE and PD non-increasing in their "
          "weights on 10 random stage inputs, exact solves")


# ---------------------------------------------------------------------------
# criterion 7: terminations only under realized capacity shortfall, and the
# long horizon wastes less than the short one on the same capacity seeds


def _cliff_capacity(total: int, hours: int, seed: int) -> SignalSeries:
    """Full fleet with one seeded mid-run outage trough (40-55% of the
    fleet lost for 4-5 hours starting at hour 11 or 12)."""
    rng = np.random.default_rng(seed)
    t_star = int(rng.integers(11, 13))
    depth = float(rng.uniform(0.40, 0.55))
    trough = int(rng.integers(4, 6))
    vals = [float(total)] * hours
    for t in range(t_star - 1, t_star - 1 + trough):
        vals[t] = float(int(depth * total))
    return SignalSeries("capacity", tuple(vals))


def _c7_profile(hours: int) -> ArrivalProfile:
    # a burst of long 4x12 jobs lands before any outage is visible to the
    # short horizon; a mixed filler stream follows
    counts = {(1, JobClass(4, 12)): 25, (2, JobClass(4, 12)): 25}
    rng = np.random.default_rng(7)
    for _ in range(110):
        c = JobClass(int(rng.choice([1, 2, 4])), int(rng.integers(1, 9)))
        t = int(rng.integers(3, 21))
        counts[(t, c)] = counts.get((t, c), 0) + 1
    return ArrivalProfile(counts, hours)


def test_c7_termination_causality_and_horizon_effect():
    hours = 32
    profile = _c7_profile(hours)
    classes = tuple(sorted({c for (_, c) in profile.counts}))
    carbon = synthetic_carbon(hours + 12)
    wins = 0
    for seed in range(1, 21):
        truth = _cliff_capacity(200, hours, seed)
        forecast = noisy_forecast(truth, 0.07, seed=seed + 1000, total_servers=200)
        wasted = {}
        for t_h in (9, 24):
            traj = run(
                DESK, profile, classes, truth, carbon,
                HorizonConfig(t_h, t_h, t_h), ObjectiveWeights(),
                capacity_forecast=forecast, gap_tol=1e-3,
            )
            wasted[t_h] = traj.wasted_server_hours()
            for rec in traj.records:
                if rec.terminations:
                    assert rec.committed_before > rec.capacity, (
                        f"seed {seed} T={t_h} hour {rec.hour}: termination with "
                        f"committed {rec.committed_before} <= capacity {rec.capacity}"
                    )
        if wasted[24] < wasted[9]:
            wins += 1
    assert wins >= 15, f"T=24 wasted strictly less on only {wins}/20 seeds"
    print(f"\ncriterion 7: PASS - every termination follows a realized "
          f"capacity shortfall; T=24 wasted less than T=9 on {wins}/20 seeds")


# ---------------------------------------------------------------------------
# criterion 8: CO2 is robust to unbiased carbon-forecast noise (sigma=0.11)


def test_c8_carbon_forecast_noise_robustness():
    capacity = constant_capacity(200, DESK_HOURS)
    diffs = []
    for seed in range(1, 11):
        totals = synthetic_jobs(300, k_buckets=(1, 2, 4), max_runtime_hours=8, seed=seed)
        profile = sample_arrivals(totals, "uniform", DESK_HOURS, seed=seed)
        classes = tuple(sorted(totals))
        carbon = synthetic_carbon(DESK_HOURS + 8)
        horizons = HorizonConfig(24, 24, 24)
        weights = ObjectiveWeights(lambda_ce=0.1)
        accurate = run(DESK, profile, classes, capacity, carbon, horizons, weights)
        noisy = run(
            DESK, profile, classes, capacity, carbon, horizons, weights,
            carbon_forecast=noisy_forecast(carbon, 0.11, seed=seed + 500),
        )
        co2_acc = total_emissions(accurate, carbon, DESK)
        co2_noisy = total_emissions(noisy, carbon, DESK)
        diffs.append((co2_noisy - co2_acc) / co2_acc)
    mean_diff = sum(diffs) / len(diffs)
    assert abs(mean_diff) <= 0.03, f"mean CO2 shift {mean_diff:.2%} outside +/-3%"
    print(f"\ncriterion 8: PASS - mean CO2 shift under noisy carbon forecasts "
          f"{mean_diff:+.2%} (10 seeds, worst {max(abs(d) for d in diffs):.2%})")


# ---------------------------------------------------------------------------
# criterion 9: stage solves are fast enough at production scale and desk scale


def test_c9_stage_solve_performance():
    from dcsched.engine import assemble_inputs

    # production-scale aggregation: 20000 servers, ~120 classes, T_h = 24
    fleet = DCConfig(total_servers=20_000, p_peak_mw=100.0, p_idle_mw=30.0)
    totals = synthetic_jobs(
        30_000, k_buckets=(1, 2, 4, 8, 16), max_runtime_hours=24, seed=3
    )
    profile = sample_arrivals(totals, "small_var", 168, seed=3)
    classes = tuple(sorted(totals))
    assert len(classes) >= 110
    carbon = synthetic_carbon(168 + 24)
    inputs = assemble_inputs(
        1, state_of(1, classes), fleet, profile.table(classes),
        constant_capacity(20_000, 168), carbon,
        HorizonConfig(24, 24, 24), ObjectiveWeights(lambda_ce=0.1),
    )
    t0 = time.time()
    solve_stage(inputs, time_limit=60.0)
    fleet_elapsed = time.time() - t0
    assert fleet_elapsed < 60.0

    # desk scale
    totals = synthetic_jobs(300, k_buckets=(1, 2, 4), max_runtime_hours=8, seed=1)
    profile = sample_arrivals(totals, "uniform", DESK_HOURS, seed=1)
    classes = tuple(sorted(totals))
    inputs = assemble_inputs(
        1, state_of(1, classes), DESK, profile.table(classes),
        constant_capacity(200, DESK_HOURS), synthetic_carbon(DESK_HOURS + 8),
        HorizonConfig(24, 24, 24), ObjectiveWeights(lambda_ce=0.1),
    )
    t0 = time.time()
    solve_stage(inputs)
    desk_elapsed = time.time() - t0
    assert desk_elapsed < 2.0
    print(f"\ncriterion 9: PASS - production-scale stage ({len(totals)} classes aggregated "
          f"from 30000 jobs) solved in {fleet_elapsed:.2f}s; desk stage in "
          f"{desk_elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 10: identical config + seeds give byte-identical summary CSVs


def test_c10_reproducible_summary(tmp_path):
    from dcsched.cli import main

    out = tmp_path / "results"
    cfg = tmp_path / "repro.yaml"
    cfg.write_text(
        "dc:\n"
        "  total_servers: 50\n"
        "  p_peak_mw: 10.0\n"
        "  p_idle_mw: 3.0\n"
        "signals:\n"
        "  hours: 24\n"
        "  capacity:\n"
        "    mode: walk\n"
        "profiles:\n"
        "  jobs: 40\n"
        "  k_buckets: [1, 2]\n"
        "  max_runtime_hours: 4\n"
        "sweep:\n"
        "  horizon_t: [4, 6]\n"
        "  lambda_ce: [0.0, 0.1]\n"
        "  seeds: [1, 2]\n"
        "solver:\n"
        "  time_limit_s: 30\n"
        f"output_dir: {out}\n"
    )
    assert main(["run", str(cfg)]) == 0
    first = (out / "summary.csv").read_bytes()
    assert main(["run", str(cfg)]) == 0
    second = (out / "summary.csv").read_bytes()
    assert first == second
    rows = len(first.decode().strip().splitlines()) - 1
    print(f"\ncriterion 10: PASS - two consecutive runs produced byte-identical "
          f"summary CSVs ({rows} sweep rows)")
