"""Single-stage mixed-integer scheduling problem at hour r.

Decides job starts over the decision window, terminations of running jobs
at r, and the implied active-server trajectory, trading utilization against
carbon emissions and the stage peak power.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    SystemState,
    committed_servers,
    max_runtime_of,
    power_of,
)
from .milp import MilpModel, solve

log = logging.getLogger(__name__)


class StageError(RuntimeError):
    """Solver failure at a stage; carries the stage index."""

    def __init__(self, stage: int, message: str) -> None:
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


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


def _start_hours(inputs: StageInputs, c: JobClass) -> list[int]:
    """Hours in the window at which class c may start.

    Starts that cannot finish by t_end are excluded so end-of-run windows
    never strand jobs mid-execution.
    """
    ts = inputs.window()
    if inputs.t_end is None:
        return ts
    return [t for t in ts if t + c.runtime - 1 <= inputs.t_end]


def build_stage(
    inputs: StageInputs, with_slack: bool = False
) -> tuple[MilpModel, _StageHandles]:
    state = inputs.state
    r = state.stage
    cfg = inputs.cfg
    ts = inputs.window()
    ext = inputs.extended_window()
    slope = cfg.slope_mw_per_server

    for c in state.queued:
        if c not in inputs.classes:
            raise DomainError(f"queued class {c} outside declared class set")
    for (c, _t) in inputs.job_forecast:
        if c not in inputs.classes:
            raise DomainError(f"forecast class {c} outside declared class set")

    model = MilpModel()
    h = _StageHandles()

    totals: dict[JobClass, int] = {}
    for c in inputs.classes:
        totals[c] = state.queued.get(c, 0) + sum(
            inputs.job_forecast.get((c, t), 0) for t in ts
        )
    class_starts: dict[JobClass, list[int]] = {}
    for c in inputs.classes:
        class_starts[c] = []
        for t in _start_hours(inputs, c):
            vid = model.add_var(f"n_{c.servers}_{c.runtime}_{t}", "integer", 0, totals[c])
            h.starts[(c, t)] = vid
            class_starts[c].append(vid)
    # termination variables exist only when the realized hour-r capacity
    # cannot hold the prior commitments; a job is never cancelled for
    # economic gain or on an unrealized forecast dip
    if committed_servers(state, r) > inputs.capacity_forecast[r]:
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
        for c in inputs.classes:
            h.slack[c] = model.add_var(
                f"s_{c.servers}_{c.runtime}", "integer", 0
            )

    # active-server accounting: new starts + prior commitments - freed
    for t in ext:
        coeffs: dict[int, float] = {h.active[t]: -1.0}
        for c in inputs.classes:
            for t2 in range(max(r, t - c.runtime + 1), min(t, ts[-1]) + 1):
                vid = h.starts.get((c, t2))
                if vid is not None:
                    coeffs[vid] = coeffs.get(vid, 0.0) + c.servers
        held = 0
        for (c, t_b), num in state.running.items():
            if t_b + c.runtime > t:
                held += c.servers * num
                vid = h.terms.get((c, t_b))
                if vid is not None:
                    coeffs[vid] = coeffs.get(vid, 0.0) - c.servers
        model.add_constraint(coeffs, "=", -held, f"active_{t}")

    # starts limited to queue plus submissions seen so far
    for c in inputs.classes:
        cumulative = state.queued.get(c, 0)
        run: dict[int, float] = {}
        for t in ts:
            cumulative += inputs.job_forecast.get((c, t), 0)
            vid = h.starts.get((c, t))
            if vid is not None:
                run[vid] = 1.0
            if run:
                model.add_constraint(
                    dict(run), "<=", cumulative, f"alloc_{c.servers}_{c.runtime}_{t}"
                )

    # minimum clearance: first half-window arrivals plus the queue; only
    # arrivals with an admissible start hour at or after arrival count
    half = len(ts) // 2
    for c in inputs.classes:
        admissible = _start_hours(inputs, c)
        last_start = admissible[-1] if admissible else ts[0] - 1
        required = state.queued.get(c, 0) + sum(
            inputs.job_forecast.get((c, t), 0)
            for t in ts[:half]
            if t <= last_start
        )
        coeffs = {vid: 1.0 for vid in class_starts[c]}
        if with_slack:
            coeffs[h.slack[c]] = 1.0
        # a class with no admissible start hour (cannot finish by t_end)
        # simply waits in the queue; it cannot be force-cleared
        if coeffs:
            model.add_constraint(
                coeffs, ">=", required, f"clear_{c.servers}_{c.runtime}"
            )

    # capacity bound within the decision window; at future hours the bound
    # never forces termination of already-committed work (pre-emptive
    # termination on an unrealized forecast dip is not modelled)
    for t in ts:
        cap = inputs.capacity_forecast[t]
        if t > r:
            cap = max(cap, committed_servers(state, t))
        model.add_constraint({h.active[t]: 1.0}, "<=", cap, f"cap_{t}")

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
    if with_slack:
        for vid in h.slack.values():
            obj[vid] = -10.0 * max_coeff
    model.set_objective(obj, constant=constant, maximize=True)
    return model, h


def solve_stage(
    inputs: StageInputs,
    gap_tol: float = 1e-4,
    time_limit: float = 60.0,
) -> StageDecision:
    """Solve the stage problem; on infeasible minimum clearance, re-solve
    with penalized slack and return the relaxed optimum."""
    r = inputs.state.stage
    model, h = build_stage(inputs, with_slack=False)
    res = solve(model, gap_tol=gap_tol, time_limit=time_limit)
    relaxed = False
    if res.status == "infeasible":
        relaxed = True
        model, h = build_stage(inputs, with_slack=True)
        res = solve(model, gap_tol=gap_tol, time_limit=time_limit)
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
    if relaxed:
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
    """Re-check the scheduling constraints on integer values, exactly."""
    state = inputs.state
    r = state.stage
    ts = inputs.window()
    ext = inputs.extended_window()
    bad: list[str] = []

    for (c, t_b), num in decision.terminations.items():
        if num > state.running.get((c, t_b), 0):
            bad.append(f"terminating {num} of {(c, t_b)}, only {state.running.get((c, t_b), 0)} running")

    for t in ext:
        occ = 0
        for (c, t2), num in decision.starts.items():
            if t2 <= min(t, ts[-1]) and t2 + c.runtime > t:
                occ += c.servers * num
        for (c, t_b), num in state.running.items():
            if t_b + c.runtime > t:
                occ += c.servers * (num - decision.terminations.get((c, t_b), 0))
        if occ != decision.active.get(t, 0):
            bad.append(f"active-server mismatch at t={t}: {occ} != {decision.active.get(t)}")

    for c in inputs.classes:
        cumulative = state.queued.get(c, 0)
        started = 0
        for t in ts:
            cumulative += inputs.job_forecast.get((c, t), 0)
            started += decision.starts.get((c, t), 0)
            if started > cumulative:
                bad.append(f"class {c} over-allocated by hour {t}")
        admissible = _start_hours(inputs, c)
        if admissible:
            half = len(ts) // 2
            required = state.queued.get(c, 0) + sum(
                inputs.job_forecast.get((c, t), 0)
                for t in ts[:half]
                if t <= admissible[-1]
            )
            total = sum(decision.starts.get((c, t), 0) for t in ts)
            if total + decision.slack.get(c, 0) < required:
                bad.append(f"class {c} clears {total} of {required} required")

    for t in ts:
        cap = inputs.capacity_forecast[t]
        if t > r:
            cap = max(cap, committed_servers(state, t))
        if decision.active.get(t, 0) > cap:
            bad.append(f"capacity exceeded at t={t}: {decision.active.get(t)} > {cap}")
    return bad
