"""Single-stage mixed-integer scheduling problem at hour r.

Decides job starts over the decision window, terminations of running jobs
at r, and the implied active-server trajectory, trading utilization against
carbon emissions and the stage peak power.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping

from .core import (
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    SystemState,
    busy_servers,
    max_runtime_of,
    power_of,
)
from .milp import MilpModel, WarmStart, solve

log = logging.getLogger(__name__)


class StageError(RuntimeError):
    """Solver failure at a stage; carries the stage index and the reason."""

    def __init__(self, stage: int, reason: str) -> None:
        self.stage = stage
        self.reason = reason
        super().__init__(f"stage {stage}: {reason}")


@dataclass(frozen=True)
class StageBounds:
    """Right-hand sides of the stage's scheduling rules, derived once and
    read by both the model and the exact re-check."""

    start_hours: dict[JobClass, list[int]]  # admissible start hours per class
    allowance: dict[JobClass, list[int]]  # queue + forecast arrivals up to each window hour
    required: dict[JobClass, int]  # minimum clearance, classes with an admissible start
    capacity: dict[int, int]  # active-server bound per window hour
    held: dict[int, int]  # servers held by earlier starts per extended-window hour


@dataclass(frozen=True)
class StageInputs:
    """Everything the stage problem sees at hour `state.stage`.

    job_forecast maps (class, t) -> expected arrivals over the decision
    window (exact at t = r); capacity_forecast maps t -> available servers
    over the decision window (exact at t = r); carbon_forecast maps
    t -> kg CO2 / MWh over the extended window. t_end, when set, is the
    last hour of the overall run: the window is truncated there and no
    start may run past it.
    """

    cfg: DCConfig
    state: SystemState
    classes: tuple[JobClass, ...]
    job_forecast: Mapping[tuple[JobClass, int], int]
    capacity_forecast: Mapping[int, int]
    carbon_forecast: Mapping[int, float]
    weights: ObjectiveWeights
    horizons: HorizonConfig
    t_end: int | None = None

    def window(self) -> list[int]:
        r = self.state.stage
        last = r + self.horizons.t_h - 1
        if self.t_end is not None:
            last = min(last, self.t_end)
        return list(range(r, last + 1))

    def extended_window(self) -> list[int]:
        ts = self.window()
        l_max = max_runtime_of(self.classes)
        return list(range(ts[0], ts[-1] + l_max - 1 + 1))

    @cached_property
    def bounds(self) -> StageBounds:
        """The stage bounds, derived once per stage."""
        state = self.state
        r = state.stage
        ts = self.window()
        declared = set(self.classes)
        for c in state.queued:
            if c not in declared:
                raise DomainError(f"queued class {c} outside declared class set")
        for (c, _t) in self.job_forecast:
            if c not in declared:
                raise DomainError(f"forecast class {c} outside declared class set")

        half = len(ts) // 2
        start_hours: dict[JobClass, list[int]] = {}
        allowance: dict[JobClass, list[int]] = {}
        required: dict[JobClass, int] = {}
        for c in self.classes:
            # starts that cannot finish by t_end are excluded so end-of-run
            # windows never strand jobs mid-execution
            hours = [t for t in ts if self.t_end is None or t + c.runtime - 1 <= self.t_end]
            start_hours[c] = hours
            available = list(accumulate(
                (self.job_forecast.get((c, t), 0) for t in ts), initial=state.queued.get(c, 0)
            ))
            allowance[c] = available[1:]
            # minimum clearance: the queue plus the first half-window's
            # arrivals at hours the class may still start; a class with no
            # admissible start simply waits
            if hours:
                required[c] = available[min(half, len(hours))]

        held = busy_servers(state.running, self.extended_window())
        # at future hours the bound never forces termination of committed
        # work (pre-emptive termination on an unrealized forecast dip is
        # not modelled)
        capacity = {
            t: self.capacity_forecast[t] if t == r else max(self.capacity_forecast[t], held[t])
            for t in ts
        }
        return StageBounds(start_hours, allowance, required, capacity, held)


def util_coeff(r: int, t_h: int, c: JobClass, t: int) -> int:
    """Utilization reward for starting a job of class c at hour t (or the
    penalty for cancelling one started at t_b = t)."""
    return (r + t_h) * c.server_hours - t


@dataclass
class _StageHandles:
    starts: dict[tuple[JobClass, int], int] = field(default_factory=dict)
    terms: dict[tuple[JobClass, int], int] = field(default_factory=dict)
    active: dict[int, int] = field(default_factory=dict)
    peak: int = -1
    slack: dict[JobClass, int] = field(default_factory=dict)


def occupancy_row(starts: Mapping[tuple[JobClass, int], int], classes: Iterable[JobClass],
                  t: int, first: int, last: int) -> dict[int, float]:
    """Servers busy at hour t from start variables at hours first..last:
    coefficient c.servers on each start of class c still running at t."""
    coeffs: dict[int, float] = {}
    for c in classes:
        for t2 in range(max(first, t - c.runtime + 1), min(t, last) + 1):
            vid = starts.get((c, t2))
            if vid is not None:
                coeffs[vid] = float(c.servers)
    return coeffs


def add_allocation_rows(model: MilpModel, starts: Mapping[tuple[JobClass, int], int],
                        c: JobClass, hours: Iterable[int], allowance: Iterable[int]) -> None:
    """Starts of class c up to each hour limited to the jobs available by
    then (`allowance`, cumulative over `hours`)."""
    run: dict[int, float] = {}
    for t, available in zip(hours, allowance):
        vid = starts.get((c, t))
        if vid is not None:
            run[vid] = 1.0
        if run:
            model.add_constraint(run, "<=", available, f"alloc_{c.servers}_{c.runtime}_{t}")


def build_stage(
    inputs: StageInputs, with_slack: bool = False
) -> tuple[MilpModel, _StageHandles]:
    state = inputs.state
    r = state.stage
    cfg = inputs.cfg
    ts = inputs.window()
    ext = inputs.extended_window()
    slope = cfg.slope_mw_per_server
    b = inputs.bounds

    model = MilpModel()
    h = _StageHandles()

    for c in inputs.classes:
        for t in b.start_hours[c]:
            h.starts[(c, t)] = model.add_var(
                f"n_{c.servers}_{c.runtime}_{t}", "integer", 0, b.allowance[c][-1]
            )
    # termination variables exist only when the realized hour-r capacity
    # cannot hold the prior commitments; a job is never cancelled for
    # economic gain or on an unrealized forecast dip
    if b.held[r] > b.capacity[r]:
        for (c, t_b), num in sorted(
            state.running.items(), key=lambda kv: (kv[0][1], kv[0][0])
        ):
            h.terms[(c, t_b)] = model.add_var(
                f"v_{c.servers}_{c.runtime}_{t_b}", "integer", 0, num
            )
    for t in ext:
        h.active[t] = model.add_var(f"m_{t}", "integer", 0, cfg.total_servers)
    h.peak = model.add_var("PD", "continuous", 0.0)
    max_coeff = max(
        (util_coeff(r, inputs.horizons.t_h, c, r) for c in inputs.classes),
        default=1,
    )
    if with_slack:
        for c in b.required:
            h.slack[c] = model.add_var(
                f"s_{c.servers}_{c.runtime}", "integer", 0
            )

    # active-server accounting: new starts + prior commitments - freed
    for t in ext:
        coeffs: dict[int, float] = {h.active[t]: -1.0}
        coeffs.update(occupancy_row(h.starts, inputs.classes, t, r, ts[-1]))
        if h.terms:
            for (c, t_b) in state.running:
                if t_b + c.runtime > t:
                    coeffs[h.terms[(c, t_b)]] = -float(c.servers)
        model.add_constraint(coeffs, "=", -b.held[t], f"active_{t}")

    for c in inputs.classes:
        add_allocation_rows(model, h.starts, c, ts, b.allowance[c])

    for c, required in b.required.items():
        coeffs = {h.starts[(c, t)]: 1.0 for t in b.start_hours[c]}
        if with_slack:
            coeffs[h.slack[c]] = 1.0
        model.add_constraint(coeffs, ">=", required, f"clear_{c.servers}_{c.runtime}")

    for t in ts:
        model.add_constraint({h.active[t]: 1.0}, "<=", b.capacity[t], f"cap_{t}")

    # stage peak power epigraph
    for t in ts:
        model.add_constraint(
            {h.active[t]: slope, h.peak: -1.0}, "<=", -cfg.p_idle_mw, f"peak_{t}"
        )

    # objective: utilization minus weighted carbon and peak terms
    obj: dict[int, float] = {}
    for (c, t), vid in h.starts.items():
        obj[vid] = float(util_coeff(r, inputs.horizons.t_h, c, t))
    for (c, t_b), vid in h.terms.items():
        obj[vid] = -float(util_coeff(r, inputs.horizons.t_h, c, t_b))
    constant = 0.0
    if inputs.weights.lambda_ce:
        for t in ext:
            cr = inputs.carbon_forecast[t]
            obj[h.active[t]] = obj.get(h.active[t], 0.0) - inputs.weights.lambda_ce * cr * slope
            constant -= inputs.weights.lambda_ce * cr * cfg.p_idle_mw
    obj[h.peak] = -inputs.weights.lambda_pd
    for vid in h.slack.values():
        obj[vid] = -10.0 * max_coeff
    model.set_objective(obj, constant=constant)
    return model, h


def solve_stage(
    inputs: StageInputs,
    gap_tol: float = 1e-4,
    time_limit: float = 60.0,
    warm: WarmStart | None = None,
) -> StageDecision:
    """Solve the stage problem; on infeasible minimum clearance, re-solve
    with penalized slack and return the relaxed optimum. `warm` carries the
    run's last optimal relaxation basis into both solves."""
    r = inputs.state.stage
    model, h = build_stage(inputs, with_slack=False)
    res = solve(model, gap_tol=gap_tol, time_limit=time_limit, warm=warm)
    if res.status == "infeasible":
        model, h = build_stage(inputs, with_slack=True)
        res = solve(model, gap_tol=gap_tol, time_limit=time_limit, warm=warm)
    if res.status in ("infeasible", "error"):
        raise StageError(r, f"{res.status}: {res.message}")

    active = {t: int(res.value(vid)) for t, vid in h.active.items()}
    # report the realized stage peak, not the (possibly slack) epigraph value
    peak = max(power_of(active[t], inputs.cfg) for t in inputs.window())
    decision = StageDecision(
        starts={key: int(res.value(vid)) for key, vid in h.starts.items() if res.value(vid)},
        terminations={key: int(res.value(vid)) for key, vid in h.terms.items() if res.value(vid)},
        active=active,
        peak=peak,
        objective=res.objective if res.objective is not None else float("nan"),
        gap=res.gap,
        status=res.status,
        slack={c: int(res.value(vid)) for c, vid in h.slack.items() if res.value(vid)},
    )
    if decision.slack:
        log.warning(
            "stage %d: minimum clearance relaxed, slack=%s",
            r,
            {f"({c.servers},{c.runtime})": s for c, s in decision.slack.items()},
        )
    violations = validate_decision(inputs, decision)
    if violations:
        raise StageError(r, "decision fails feasibility recheck: " + "; ".join(violations))
    return decision


def stage_emissions(inputs: StageInputs, decision: StageDecision) -> float:
    """Carbon term of the stage objective: forecast rate times power over
    the extended window, in kg CO2."""
    return sum(
        inputs.carbon_forecast[t] * power_of(decision.active[t], inputs.cfg)
        for t in inputs.extended_window()
    )


def validate_decision(inputs: StageInputs, decision: StageDecision) -> list[str]:
    """Re-check the scheduling rules on the decision's own integer counts,
    exactly, against the stage bounds; never reads the model."""
    state = inputs.state
    r = state.stage
    ts = inputs.window()
    b = inputs.bounds
    bad: list[str] = []

    for table in (decision.starts, decision.terminations, decision.slack):
        for key, num in table.items():
            if num < 0:
                bad.append(f"negative count {num} for {key}")
    for (c, t), num in decision.starts.items():
        if num and t not in b.start_hours.get(c, ()):
            bad.append(f"class {c} started at inadmissible hour {t}")
    if any(decision.terminations.values()) and b.held[r] <= b.capacity[r]:
        bad.append(f"terminations without a shortfall: {b.held[r]} <= {b.capacity[r]}")
    for (c, t_b), num in decision.terminations.items():
        if num > state.running.get((c, t_b), 0):
            bad.append(f"terminating {num} of {(c, t_b)}, only {state.running.get((c, t_b), 0)} running")

    ext = inputs.extended_window()
    added = busy_servers(decision.starts, ext)
    freed = busy_servers(decision.terminations, ext)
    for t in ext:
        occ = b.held[t] + added[t] - freed[t]
        if occ != decision.active.get(t, 0):
            bad.append(f"active-server mismatch at t={t}: {occ} != {decision.active.get(t)}")

    for c in inputs.classes:
        started = 0
        for t, available in zip(ts, b.allowance[c]):
            started += decision.starts.get((c, t), 0)
            if started > available:
                bad.append(f"class {c} over-allocated by hour {t}")
        if c in b.required and started + decision.slack.get(c, 0) < b.required[c]:
            bad.append(f"class {c} clears {started} of {b.required[c]} required")

    for t in ts:
        if decision.active.get(t, 0) > b.capacity[t]:
            bad.append(f"capacity exceeded at t={t}: {decision.active.get(t)} > {b.capacity[t]}")
    return bad
