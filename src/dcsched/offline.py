"""Perfect-information offline schedule: the goodput upper bound.

Maximizes total scheduled server-hours subject to hourly capacity and
job-submission-time constraints over the whole horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ArrivalProfile, DomainError, JobClass, class_table, write_csv
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
    classes = tuple(sorted(set(classes)))
    arrivals = profile.table(classes)
    servers, runtime = class_table(classes)
    k = np.maximum(t_end - runtime + 1 if require_completion else np.full(len(classes), t_end), 0)
    cls, off, occupancy, allocation = start_block(k, servers, runtime, t_end, t_end)
    n = len(cls)
    # hourly capacity on active servers, then cumulative starts bounded by
    # cumulative submissions
    submitted = arrivals[k > 0].cumsum(axis=1)
    rows = t_end + submitted.size
    model = MilpModel(
        c=(servers * runtime)[cls].astype(float),
        lb=np.zeros(n),
        ub=arrivals.sum(axis=1).astype(float)[cls],
        integer=np.ones(n, dtype=bool),
        a=csc([occupancy, allocation], (rows, n)),
        lo=np.full(rows, -np.inf),
        hi=np.concatenate([np.asarray(capacity[:t_end], dtype=float), submitted.ravel()]),
    )
    handles = {(classes[i], o + 1): j for j, (i, o) in enumerate(zip(cls.tolist(), off.tolist()))}
    return model, handles


def solve_offline(
    profile: ArrivalProfile,
    capacity: Sequence[int],
    classes: Iterable[JobClass],
    require_completion: bool = False,
    gap_tol: float = 1e-6,
    time_limit: float = 60.0,
) -> OfflineSchedule:
    """Solve the offline MILP (see `build_offline`). The schedule's starts
    are keyed (class, start hour); its active servers at hours 1..T are the
    model's own occupancy rows, the first T, evaluated at the solution."""
    model, handles = build_offline(profile, capacity, classes, require_completion)
    res = solve(model, gap_tol=gap_tol, time_limit=time_limit)
    if res.status not in ("optimal", "feasible-gap"):
        raise RuntimeError(f"offline solve failed: {res.status} {res.message}")
    x = res.values.tolist()
    starts = {key: int(x[j]) for key, j in handles.items() if x[j]}
    goodput = sum(c.server_hours * num for (c, _), num in starts.items())
    active = (model.a @ res.values)[:profile.horizon].astype(np.int64).tolist()
    return OfflineSchedule(starts, goodput, active)


def write_schedule_csv(schedule: OfflineSchedule, path: str) -> None:
    write_csv(path, ["t", "k", "l", "n"],
              ([t, c.servers, c.runtime, num] for (c, t), num
               in sorted(schedule.starts.items(), key=lambda kv: (kv[0][1], kv[0][0]))))
