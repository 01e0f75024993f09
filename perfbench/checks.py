"""Output checks run on every benchmark run.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations


def check_trajectory(traj, profile, capacity) -> list[str]:
    """Closed-loop invariants of one finished receding-horizon run.

    - every hour of the horizon has a decision;
    - final state: queued + running + completed equals arrivals, per class;
    - realized active servers never exceed the true capacity;
    - an hour with terminations had more servers committed than available.
    """
    problems = []
    if len(traj.records) != profile.horizon:
        problems.append(f"{len(traj.records)} decisions for {profile.horizon} hours")
    state = traj.final_state
    running = state.running_by_class()
    arrivals = profile.totals()
    for c in sorted(set(arrivals) | set(running) | set(state.queued) | set(state.completed)):
        held = state.queued.get(c, 0) + running.get(c, 0) + state.completed.get(c, 0)
        if held != arrivals.get(c, 0):
            problems.append(f"class {c}: queued+running+completed={held}, arrivals={arrivals.get(c, 0)}")
    for rec in traj.records:
        cap = capacity.at(rec.hour)
        if rec.active > cap:
            problems.append(f"hour {rec.hour}: {rec.active} active > capacity {cap}")
        if rec.terminations and not rec.committed_before > cap:
            problems.append(
                f"hour {rec.hour}: terminations with committed {rec.committed_before} <= capacity {cap}"
            )
    return problems


def check_goodput(goodput: int, bound: int, gap: float) -> list[str]:
    """Completed server-hours cannot beat the offline optimum, which is at
    most the offline solution times (1 + its reported relative MIP gap)."""
    if goodput > bound * (1.0 + gap) + 1e-9:
        return [f"goodput {goodput} exceeds offline bound {bound} (gap {gap:.2g})"]
    return []
