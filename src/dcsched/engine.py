"""Hour-by-hour receding-horizon loop.

Each stage assembles forecasts from the truth/forecast series, solves the
stage problem, applies only the current hour's starts and terminations,
and advances the inventory state.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass, field

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
    committed_servers,
    max_runtime_of,
    server_commitments,
)
from .milp import WarmStart
from .signals import SignalSeries
from .stage import StageError, StageInputs, solve_stage

log = logging.getLogger(__name__)


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
    profile: ArrivalProfile,
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
    read from the profile at hours before r + t_j.
    """
    t_end = profile.horizon
    cap_fc = capacity_forecast if capacity_forecast is not None else capacity_truth
    car_fc = carbon_forecast if carbon_forecast is not None else carbon_truth

    inputs = StageInputs(
        cfg=cfg,
        state=state,
        classes=classes,
        job_forecast={},
        capacity_forecast={},
        carbon_forecast={},
        weights=weights,
        horizons=horizons,
        t_end=t_end,
    )
    jobs = {
        (c, t): num
        for t in inputs.window() if t < r + horizons.t_j
        for c, num in profile.at(t).items()
    }
    caps: dict[int, int] = {}
    edge = r + horizons.t_c - 1
    for t in inputs.window():
        if t == r:
            caps[t] = int(capacity_truth.at(r))
        else:
            caps[t] = int(cap_fc.at(min(t, edge)))
    carbon = {}
    for t in inputs.extended_window():
        carbon[t] = carbon_truth.at(r) if t == r else car_fc.at(t)
    return dataclasses.replace(
        inputs, job_forecast=jobs, capacity_forecast=caps, carbon_forecast=carbon
    )


def advance_state(
    state: SystemState,
    decision: StageDecision,
    arrivals_at_r: dict[JobClass, int],
    max_runtime: int,
) -> SystemState:
    """Apply the hour-r starts and terminations, observe arrivals, and
    return the stage-(r+1) state. Verifies the commitment-vector identity
    and job conservation."""
    r = state.stage
    starts_r = decision.starts_at(r)
    new = SystemState(
        stage=r + 1,
        queued=dict(state.queued),
        completed=dict(state.completed),
        arrived=dict(state.arrived),
    )

    for (c, t_b), num in state.running.items():
        cancelled = decision.terminations.get((c, t_b), 0)
        if cancelled > num:
            raise DomainError(f"terminating {cancelled} of {num} running {(c, t_b)}")
        kept = num - cancelled
        if t_b == r - c.runtime + 1:
            new.completed[c] = new.completed.get(c, 0) + kept
        elif kept:
            new.running[(c, t_b)] = kept
    for (c, t_b) in decision.terminations:
        if (c, t_b) not in state.running:
            raise DomainError(f"termination of unknown running entry {(c, t_b)}")

    for c, num in starts_r.items():
        if c.runtime == 1:
            new.completed[c] = new.completed.get(c, 0) + num
        else:
            new.running[(c, r)] = new.running.get((c, r), 0) + num

    terminated_by_class: dict[JobClass, int] = {}
    for (c, _), num in decision.terminations.items():
        terminated_by_class[c] = terminated_by_class.get(c, 0) + num
    touched = set(arrivals_at_r) | set(starts_r) | set(terminated_by_class)
    for c in touched:
        q = (
            state.queued.get(c, 0)
            + arrivals_at_r.get(c, 0)
            - starts_r.get(c, 0)
            + terminated_by_class.get(c, 0)
        )
        if q < 0:
            raise DomainError(f"queue for {c} would go negative ({q}) at stage {r}")
        new.queued[c] = q
    for c, num in arrivals_at_r.items():
        new.arrived[c] = new.arrived.get(c, 0) + num

    _check_commitment_recursion(state, new, decision, max_runtime)
    check_state(new, max_runtime)
    return new


def _check_commitment_recursion(
    old: SystemState,
    new: SystemState,
    decision: StageDecision,
    max_runtime: int,
) -> None:
    """The commitment vector derived from the running table must match the
    incremental shift/add/remove recursion applied to the old vector."""
    r = old.stage
    u_old = server_commitments(old, max_runtime)
    u_new = server_commitments(new, max_runtime)
    starts_r = decision.starts_at(r)
    for l in range(1, max_runtime):
        expected = u_old[l] if l < max_runtime - 1 else 0  # shift: was l+1
        expected += sum(
            c.servers * num for c, num in starts_r.items() if c.runtime == l + 1
        )
        for (c, t_b), num in decision.terminations.items():
            if c.runtime == l + r - t_b + 1:
                expected -= c.servers * num
        if u_new[l - 1] != expected:
            raise DomainError(
                f"commitment recursion mismatch at stage {r}, horizon {l}: "
                f"derived {u_new[l - 1]} vs incremental {expected}"
            )


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
    declared = set(classes)
    for c in profile.totals():
        if c not in declared:
            raise DomainError(f"arrival class {c} outside declared class set")
    t_end = profile.horizon
    capacity_truth.require_hours(t_end)
    max_runtime = max_runtime_of(classes)

    state = SystemState(stage=1)
    traj = Trajectory()
    warm = WarmStart()
    for r in range(1, t_end + 1):
        arrivals = profile.at(r)
        try:
            inputs = assemble_inputs(
                r, state, cfg, classes, profile, capacity_truth, carbon_truth,
                horizons, weights, capacity_forecast, carbon_forecast,
            )
            decision = solve_stage(inputs, gap_tol=gap_tol, time_limit=time_limit, warm=warm)
            realized_m = decision.active[r]
            if realized_m > capacity_truth.at(r):
                raise DomainError(
                    f"stage {r}: realized active servers {realized_m} exceed "
                    f"capacity {capacity_truth.at(r)}"
                )
            new_state = advance_state(state, decision, arrivals, max_runtime)
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
                starts=decision.starts_at(r),
                terminations=dict(decision.terminations),
                queued_after=sum(new_state.queued.values()),
                committed_before=committed_servers(state, r),
                objective=decision.objective,
                gap=decision.gap,
                status=decision.status,
                slack=dict(decision.slack),
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
