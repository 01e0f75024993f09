"""Perfect-information offline schedule: the goodput upper bound.

Maximizes total scheduled server-hours subject to hourly capacity and
job-submission-time constraints over the whole horizon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ArrivalProfile, DomainError, JobClass, busy_servers
from .milp import MilpModel, csc, solve
from .stage import start_block


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

    servers = np.array([c.servers for c in classes], dtype=int)
    runtime = np.array([c.runtime for c in classes], dtype=int)
    k = np.maximum(t_end - runtime + 1 if require_completion else np.full(len(classes), t_end), 0)
    cls, _, occupancy, allocation = start_block(k, servers, runtime, t_end, t_end)
    n = len(cls)
    hours = range(1, t_end + 1)
    # hourly capacity on active servers, then cumulative starts bounded by
    # cumulative submissions
    submitted = np.array(
        [[profile.counts.get((t, c), 0) for t in hours] for c, kk in zip(classes, k) if kk],
        dtype=int,
    ).reshape(-1, t_end).cumsum(axis=1)
    rows = t_end + submitted.size
    totals = profile.totals()
    model = MilpModel(
        c=(servers * runtime)[cls].astype(float),
        lb=np.zeros(n),
        ub=np.array([totals.get(c, 0) for c in classes], dtype=float)[cls],
        integer=np.ones(n, dtype=bool),
        a=csc([occupancy, allocation], (rows, n)),
        lo=np.full(rows, -np.inf),
        hi=np.concatenate([np.asarray(capacity[:t_end], dtype=float), submitted.ravel()]),
    )
    handles = dict(zip(((c, t) for c, kk in zip(classes, k) for t in range(1, kk + 1)), range(n)))
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
    x = res.values.tolist()
    starts = {key: int(x[j]) for key, j in handles.items() if x[j]}
    goodput = sum(c.server_hours * num for (c, _), num in starts.items())
    return OfflineSchedule(starts, goodput, active_trajectory(starts, profile.horizon))


def write_schedule_csv(schedule: OfflineSchedule, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "k", "l", "n"])
        for (c, t), num in sorted(schedule.starts.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            writer.writerow([t, c.servers, c.runtime, num])
