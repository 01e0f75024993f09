"""Perfect-information offline schedule: the goodput upper bound.

Maximizes total scheduled server-hours subject to hourly capacity and
job-submission-time constraints over the whole horizon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .core import ArrivalProfile, DomainError, JobClass, busy_servers
from .milp import MilpModel, solve
from .stage import add_allocation_rows, occupancy_row


@dataclass
class OfflineSchedule:
    starts: dict[tuple[JobClass, int], int]
    goodput: int  # server-hours started
    active: list[int]  # servers busy at hours 1..T


def build_offline(
    profile: ArrivalProfile,
    capacity: Sequence[int],
    classes: Iterable[JobClass],
    require_completion: bool = False,
) -> tuple[MilpModel, dict[tuple[JobClass, int], int]]:
    """Build the offline MILP; returns (model, variable handle map).

    With require_completion=True, starts that would run past the horizon
    end are excluded (used by tests that compare against the realized
    completed-goodput of a receding-horizon run).
    """
    t_end = profile.horizon
    if len(capacity) < t_end:
        raise DomainError(f"capacity series covers {len(capacity)} of {t_end} hours")
    classes = sorted(set(classes))
    declared = set(classes)
    for c in profile.totals():
        if c not in declared:
            raise DomainError(f"arrival class {c} outside declared class set")

    model = MilpModel()
    handles: dict[tuple[JobClass, int], int] = {}
    totals = profile.totals()
    for c in classes:
        last_start = t_end - c.runtime + 1 if require_completion else t_end
        for t in range(1, last_start + 1):
            handles[(c, t)] = model.add_var(
                f"n_{c.servers}_{c.runtime}_{t}", "integer", 0, totals.get(c, 0)
            )

    # hourly capacity on active servers
    for t in range(1, t_end + 1):
        model.add_constraint(
            occupancy_row(handles, classes, t, 1, t_end), "<=", capacity[t - 1], f"cap_{t}"
        )

    # cumulative starts bounded by cumulative submissions
    hours = range(1, t_end + 1)
    for c in classes:
        submitted = accumulate(profile.counts.get((t, c), 0) for t in hours)
        add_allocation_rows(model, handles, c, hours, submitted)

    model.set_objective({vid: c.server_hours for (c, _), vid in handles.items()})
    return model, handles


def active_trajectory(
    starts: dict[tuple[JobClass, int], int], t_end: int
) -> list[int]:
    """Occupied servers at each hour 1..t_end implied by the starts."""
    return list(busy_servers(starts, range(1, t_end + 1)).values())


def solve_offline(
    profile: ArrivalProfile,
    capacity: Sequence[int],
    classes: Iterable[JobClass],
    require_completion: bool = False,
    gap_tol: float = 1e-6,
    time_limit: float = 60.0,
) -> OfflineSchedule:
    model, handles = build_offline(profile, capacity, classes, require_completion)
    res = solve(model, gap_tol=gap_tol, time_limit=time_limit)
    if res.status not in ("optimal", "feasible-gap"):
        raise RuntimeError(f"offline solve failed: {res.status} {res.message}")
    starts = {
        key: int(res.value(vid)) for key, vid in handles.items() if res.value(vid)
    }
    goodput = sum(c.server_hours * num for (c, _), num in starts.items())
    return OfflineSchedule(starts, goodput, active_trajectory(starts, profile.horizon))


def write_schedule_csv(schedule: OfflineSchedule, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "k", "l", "n"])
        for (c, t), num in sorted(schedule.starts.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            writer.writerow([t, c.servers, c.runtime, num])
