"""Hour-by-hour receding-horizon loop.

Each stage assembles forecasts from the truth/forecast series, solves the
stage problem, applies only the current hour's starts and terminations,
and advances the inventory state.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    SystemState,
    check_state,
    max_runtime_of,
    server_commitments,
)
from .milp import WarmStart
from .signals import SignalSeries
from .stage import StageError, StageInputs, solve_stage


@dataclass
class HourRecord:
    hour: int
    active: int
    capacity: int
    carbon: float
    starts: dict[JobClass, int]
    terminations: dict[tuple[JobClass, int], int]
    queued_after: int
    committed_before: int
    objective: float
    gap: float
    status: str
    slack: dict[JobClass, int]
    wasted_server_hours: int


@dataclass
class Trajectory:
    records: list[HourRecord] = field(default_factory=list)
    final_state: SystemState | None = None

    def active_series(self) -> list[int]:
        return [rec.active for rec in self.records]

    def total_terminations(self) -> int:
        return sum(sum(rec.terminations.values()) for rec in self.records)

    def wasted_server_hours(self) -> int:
        return sum(rec.wasted_server_hours for rec in self.records)

    def slack_events(self) -> int:
        return sum(1 for rec in self.records if rec.slack)


class RunAborted(RuntimeError):
    """A stage failed, in its solve or on a domain invariant; the partial
    trajectory of the hours before it is preserved. The message names the
    stage once, then the cause's type and reason."""

    def __init__(self, stage: int, trajectory: Trajectory, cause: Exception) -> None:
        self.stage = stage
        self.trajectory = trajectory
        detail = cause.reason if isinstance(cause, StageError) else cause
        super().__init__(f"stage {stage}: {type(cause).__name__}: {detail}")


def assemble_inputs(
    r: int,
    state: SystemState,
    cfg: DCConfig,
    classes: tuple[JobClass, ...],
    arrivals: np.ndarray,
    capacity_truth: SignalSeries,
    carbon_truth: SignalSeries,
    horizons: HorizonConfig,
    weights: ObjectiveWeights,
    capacity_forecast: SignalSeries | None = None,
    carbon_forecast: SignalSeries | None = None,
) -> StageInputs:
    """Build the stage view at hour r.

    The current hour is always exact (truth); future hours come from the
    forecast series (truth when no forecast is given), with the capacity
    forecast held at its value at the forecast-horizon edge beyond t_c and
    the carbon forecast persisting past the series end. Job arrivals are
    read from `arrivals`, the run's classes x hours table (see
    `ArrivalProfile.table`), at hours before r + t_j.
    """
    t_end = arrivals.shape[1]
    cap_fc = capacity_forecast if capacity_forecast is not None else capacity_truth
    car_fc = carbon_forecast if carbon_forecast is not None else carbon_truth

    inputs = StageInputs(cfg, state, classes, None, None, None, weights, horizons, t_end)
    window, extended = inputs.window(), inputs.extended_window()
    jobs = np.zeros((len(classes), len(window)), dtype=np.int64)
    seen = min(len(window), horizons.t_j)
    jobs[:, :seen] = arrivals[:, r - 1:r - 1 + seen]
    edge = r + horizons.t_c - 1
    caps = [capacity_truth.at(r)] + [cap_fc.at(min(t, edge)) for t in window[1:]]
    carbon = [carbon_truth.at(r)] + [car_fc.at(t) for t in extended[1:]]
    return dataclasses.replace(
        inputs, job_forecast=jobs, capacity_forecast=np.array(caps, dtype=np.int64),
        carbon_forecast=np.array(carbon, dtype=float),
    )


def advance_state(
    state: SystemState,
    decision: StageDecision,
    arrivals: np.ndarray,
    classes: tuple[JobClass, ...],
) -> SystemState:
    """Apply the hour-r starts and terminations, observe the hour-r
    arrivals, and return the stage-(r+1) state. `arrivals` is the hour's
    column of the run's arrival table (see `ArrivalProfile.table`), and the
    decision's starts are in the stage's layout: both have row i for class
    classes[i], and the starts' column 0 is hour r. A zero count leaves the
    state's tables as they are. Verifies the commitment-vector identity and
    job conservation."""
    r = state.stage
    starts_r = [(c, num) for c, num in zip(classes, decision.starts[:, 0].tolist(), strict=True)
                if num]
    arrivals_r = [(c, num) for c, num in zip(classes, arrivals.tolist(), strict=True) if num]
    terminations = decision.terminations
    max_runtime = max_runtime_of(classes)
    # the tables are copied, not rebuilt: kept running entries stay in
    # order, and the jobs that end at r and the emptied entries leave
    running = dict(state.running)
    queued, completed, arrived = dict(state.queued), dict(state.completed), dict(state.arrived)
    for key, cancelled in terminations.items():
        if key not in running or cancelled > running[key]:
            raise DomainError(f"terminating {cancelled} of {running.get(key, 0)} running {key}")
        running[key] -= cancelled
        queued[key[0]] = queued.get(key[0], 0) + cancelled
    for c, t_b in state.running:
        if t_b == r - c.runtime + 1:
            completed[c] = completed.get(c, 0) + running.pop((c, t_b))
    for key in [key for key, num in running.items() if not num]:
        del running[key]
    for c, num in arrivals_r:
        queued[c] = queued.get(c, 0) + num
        arrived[c] = arrived.get(c, 0) + num
    for c, num in starts_r:
        queued[c] = queued.get(c, 0) - num
        if queued[c] < 0:
            raise DomainError(f"queue for {c} would go negative ({queued[c]}) at stage {r}")
        if c.runtime == 1:
            completed[c] = completed.get(c, 0) + num
        else:
            running[(c, r)] = running.get((c, r), 0) + num

    new = SystemState(r + 1, running, queued, completed, arrived)
    # the commitment vector derived from the new running table must match
    # the old one shifted by an hour, plus the hour-r starts, less the
    # terminated jobs (index l - 1: servers committed for l more hours)
    derived = check_state(new, max_runtime)
    expected = server_commitments(state, max_runtime)[1:] + [0]
    for c, num in starts_r:
        if c.runtime > 1:
            expected[c.runtime - 2] += c.servers * num
    for (c, t_b), num in terminations.items():
        left = c.runtime - (r - t_b)  # hours left at r, r included
        if left > 1:
            expected[left - 2] -= c.servers * num
    if derived != expected[:len(derived)]:
        raise DomainError(f"commitment recursion mismatch at stage {r}: "
                          f"derived {derived} vs incremental {expected}")
    return new


def run(
    cfg: DCConfig,
    profile: ArrivalProfile,
    classes: tuple[JobClass, ...],
    capacity_truth: SignalSeries,
    carbon_truth: SignalSeries,
    horizons: HorizonConfig,
    weights: ObjectiveWeights,
    capacity_forecast: SignalSeries | None = None,
    carbon_forecast: SignalSeries | None = None,
    gap_tol: float = 1e-4,
    time_limit: float = 60.0,
) -> Trajectory:
    """Run the receding-horizon loop over hours 1..profile.horizon. Each
    hour's LP relaxation starts from the previous hour's optimal basis,
    kept for this run only."""
    table = profile.table(classes)
    t_end = profile.horizon
    capacity_truth.require_hours(t_end)

    state = SystemState(stage=1)
    traj = Trajectory()
    warm = WarmStart()
    for r in range(1, t_end + 1):
        try:
            inputs = assemble_inputs(
                r, state, cfg, classes, table, capacity_truth, carbon_truth,
                horizons, weights, capacity_forecast, carbon_forecast,
            )
            decision = solve_stage(inputs, gap_tol=gap_tol, time_limit=time_limit, warm=warm)
            realized_m = int(decision.active[0])
            if realized_m > capacity_truth.at(r):
                raise DomainError(
                    f"stage {r}: realized active servers {realized_m} exceed "
                    f"capacity {capacity_truth.at(r)}"
                )
            new_state = advance_state(state, decision, table[:, r - 1], classes)
        except (StageError, DomainError) as exc:
            traj.final_state = state
            raise RunAborted(r, traj, exc) from exc
        wasted = sum(
            c.servers * (r - t_b) * num
            for (c, t_b), num in decision.terminations.items()
        )
        traj.records.append(
            HourRecord(
                hour=r,
                active=realized_m,
                capacity=int(capacity_truth.at(r)),
                carbon=carbon_truth.at(r),
                starts={c: num for c, num in zip(classes, decision.starts[:, 0].tolist()) if num},
                terminations=dict(decision.terminations),
                queued_after=sum(new_state.queued.values()),
                committed_before=int(inputs.bounds.held[0]),
                objective=decision.objective,
                gap=decision.gap,
                status=decision.status,
                slack={c: num for c, num in zip(classes, decision.slack.tolist()) if num},
                wasted_server_hours=wasted,
            )
        )
        state = new_state
    traj.final_state = state
    return traj


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["hour", "active_servers", "capacity", "carbon_rate", "starts",
             "terminations", "queued_after", "committed_before", "objective",
             "gap", "status", "slack_jobs", "wasted_server_hours"]
        )
        for rec in traj.records:
            writer.writerow([
                rec.hour,
                rec.active,
                rec.capacity,
                f"{rec.carbon:.6g}",
                sum(rec.starts.values()),
                sum(rec.terminations.values()),
                rec.queued_after,
                rec.committed_before,
                f"{rec.objective:.6g}",
                f"{rec.gap:.3g}",
                rec.status,
                sum(rec.slack.values()),
                rec.wasted_server_hours,
            ])


def goodput_components(traj: Trajectory) -> tuple[int, int]:
    """(completed server-hours, wasted server-hours) of a finished run."""
    assert traj.final_state is not None
    completed = sum(
        c.server_hours * num for c, num in traj.final_state.completed.items()
    )
    return completed, traj.wasted_server_hours()
