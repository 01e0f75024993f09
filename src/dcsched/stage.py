"""Single-stage mixed-integer scheduling problem at hour r.

Decides job starts over the decision window, terminations of running jobs
at r, and the implied active-server trajectory, trading utilization against
carbon emissions and the stage peak power.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Mapping

import numpy as np

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
from .milp import MilpModel, WarmStart, csr, solve

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
        # forecast arrivals per class and window hour, in one pass
        arrivals = {c: [0] * len(ts) for c in self.classes}
        for c in state.queued:
            if c not in arrivals:
                raise DomainError(f"queued class {c} outside declared class set")
        for (c, t), num in self.job_forecast.items():
            hourly = arrivals.get(c)
            if hourly is None:
                raise DomainError(f"forecast class {c} outside declared class set")
            if r <= t <= ts[-1]:
                hourly[t - r] += num

        half = len(ts) // 2
        start_hours: dict[JobClass, list[int]] = {}
        allowance: dict[JobClass, list[int]] = {}
        required: dict[JobClass, int] = {}
        for c in self.classes:
            # starts that cannot finish by t_end are excluded so end-of-run
            # windows never strand jobs mid-execution
            hours = [t for t in ts if self.t_end is None or t + c.runtime - 1 <= self.t_end]
            start_hours[c] = hours
            available = list(accumulate(arrivals[c], initial=state.queued.get(c, 0)))
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
    """The model column of each decision quantity."""

    starts: list[tuple[JobClass, int]]  # (class, hour) of start column j; they come first
    terms: dict[tuple[JobClass, int], int]
    active: dict[int, int]
    peak: int
    slack: dict[JobClass, int]


def _spans(first: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, p) for p = first[i] .. first[i] + length[i] - 1, in
    order of i, then p."""
    length = np.maximum(length, 0)
    owner = np.repeat(np.arange(len(length)), length)
    return owner, np.arange(len(owner)) + np.repeat(first + length - np.cumsum(length), length)


def start_block(k: np.ndarray, servers: np.ndarray, runtime: np.ndarray,
                n_hours: int, n_occupied: int) -> tuple:
    """Start columns and their rows, shared by the stage and offline models.

    Class i may start at hour offsets 0..k[i]-1; the start columns come in
    class order, then offset order. Returns the class and offset of each
    start column and two blocks of (row, column, value) entries:
    - occupancy, rows 0..n_occupied-1 by hour offset: a start at offset o
      holds servers[i] over offsets o..o + runtime[i] - 1;
    - allocation, after those: for each class with a start, one row per
      hour offset 0..n_hours-1 holding its starts up to that hour.
    """
    cls, off = _spans(np.zeros_like(k), k)
    col, row = _spans(off, np.minimum(runtime[cls], n_occupied - off))
    occupancy = (row, col, servers[cls[col]].astype(float))
    rank = np.cumsum(k > 0) - 1
    col, hour = _spans(off, n_hours - off)
    allocation = (n_occupied + n_hours * rank[cls[col]] + hour, col, np.ones(len(col)))
    return cls, off, occupancy, allocation


def build_stage(
    inputs: StageInputs, with_slack: bool = False
) -> tuple[MilpModel, _StageHandles]:
    """The stage MILP and the column of each decision quantity.

    The model always lays out the full window: t_h start hours per class
    and t_h + l_max - 1 active-server hours. The end of the run and the
    inadmissible starts are stated by bounds, not by leaving columns or
    rows out: such starts and the active servers past the extended window
    are fixed at 0, and the rows of window hours past t_end and the
    clearance rows of classes with no admissible start are free. So every
    stage of a run without terminations or slack has the same matrix, and
    each relaxation can start from the basis of the hour before.
    """
    state = inputs.state
    r = state.stage
    cfg = inputs.cfg
    t_h = inputs.horizons.t_h
    ext = inputs.extended_window()
    slope = cfg.slope_mw_per_server
    b = inputs.bounds
    classes = inputs.classes
    n_t, n_ext = len(inputs.window()), len(ext)  # the hours before t_end
    n_c, n_pad = len(classes), t_h + max_runtime_of(classes) - 1

    # columns: starts by (class, window offset), terminations, m per
    # extended-window hour, PD, then slack per class
    servers = np.array([c.servers for c in classes], dtype=int)
    runtime = np.array([c.runtime for c in classes], dtype=int)
    k = np.array([len(b.start_hours[c]) for c in classes], dtype=int)
    cls, off, occupancy, allocation = start_block(np.full(n_c, t_h), servers, runtime, t_h, n_pad)
    # termination variables exist only when the realized hour-r capacity
    # cannot hold the prior commitments; a job is never cancelled for
    # economic gain or on an unrealized forecast dip
    running = []
    if b.held[r] > b.capacity[r]:
        running = sorted(state.running.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    v_servers, v_runtime, v_start, v_num = np.array(
        [(c.servers, c.runtime, t_b, num) for (c, t_b), num in running], dtype=int
    ).reshape(-1, 4).T
    n_s = len(cls)
    m0 = n_s + len(running)
    pd = m0 + n_pad
    n = pd + 1 + (n_c if with_slack else 0)

    # rows: active-server accounting per extended-window hour, allocation,
    # clearance, capacity, then the stage peak power epigraph
    clr = n_pad + t_h * n_c
    cap = clr + n_c
    pk = cap + t_h
    ext_i, ts_i, cl_i = np.arange(n_pad), np.arange(t_h), np.arange(n_c)
    # a terminated job frees its servers from r until it would have ended
    v, e = _spans(np.zeros(len(running), dtype=int), np.minimum(v_start + v_runtime - r, n_pad))
    entries = [
        occupancy,
        (e, n_s + v, -v_servers[v].astype(float)),
        (ext_i, m0 + ext_i, np.full(n_pad, -1.0)),
        allocation,
        (clr + cls, np.arange(n_s), np.ones(n_s)),
        (cap + ts_i, m0 + ts_i, np.ones(t_h)),
        (pk + ts_i, m0 + ts_i, np.full(t_h, slope)),
        (pk + ts_i, np.full(t_h, pd), np.full(t_h, -1.0)),
    ]
    if with_slack:
        entries.append((clr + cl_i, pd + 1 + cl_i, np.ones(n_c)))
    neg_held = _padded(-np.array([b.held[t] for t in ext], dtype=int), n_pad, 0.0)
    allowance = np.full((n_c, t_h), np.inf)
    allowance[:, :n_t] = np.array([b.allowance[c] for c in classes]).reshape(n_c, n_t)
    required = np.array([b.required.get(c, -np.inf) for c in classes], dtype=float)
    lo = np.concatenate([neg_held, np.full(t_h * n_c, -np.inf), required, np.full(2 * t_h, -np.inf)])
    hi = np.concatenate([neg_held, allowance.ravel(), np.full(n_c, np.inf),
                         _padded([b.capacity[t] for t in inputs.window()], t_h, np.inf),
                         _padded(np.full(n_t, -cfg.p_idle_mw), t_h, np.inf)])
    slack_ub = np.where(required > -np.inf, np.inf, 0.0) if with_slack else []
    ub = np.concatenate([np.where(off < k[cls], allowance[cls, n_t - 1], 0.0), v_num,
                         _padded(np.full(n_ext, cfg.total_servers), n_pad, 0.0), [np.inf],
                         slack_ub])
    integer = np.ones(n, dtype=bool)
    integer[pd] = False

    # objective: utilization minus weighted carbon and peak terms
    at_r = np.array([util_coeff(r, t_h, c, r) for c in classes], dtype=int)
    obj = np.zeros(n)
    obj[:n_s] = at_r[cls] - off  # util_coeff at hour r + off
    obj[n_s:m0] = -np.array([util_coeff(r, t_h, c, t_b) for (c, t_b), _ in running], dtype=float)
    constant = 0.0
    lambda_ce = inputs.weights.lambda_ce
    if lambda_ce:
        rates = [inputs.carbon_forecast[t] for t in ext]
        obj[m0:m0 + n_ext] -= lambda_ce * np.array(rates, dtype=float) * slope
        for cr in rates:
            constant -= lambda_ce * cr * cfg.p_idle_mw
    obj[pd] = -inputs.weights.lambda_pd
    obj[pd + 1:] = -10.0 * max(at_r.tolist(), default=1)

    model = MilpModel(obj, np.zeros(n), ub, integer, csr(entries, (pk + t_h, n)), lo, hi, constant)
    h = _StageHandles(
        starts=[(c, r + o) for c in classes for o in range(t_h)],
        terms={key: n_s + i for i, (key, _) in enumerate(running)},
        active=dict(zip(ext, range(m0, m0 + n_ext))),
        peak=pd,
        slack={c: pd + 1 + i for i, c in enumerate(classes) if with_slack and c in b.required},
    )
    return model, h


def _padded(values, n: int, fill: float) -> np.ndarray:
    """`values` followed by `fill` up to length n."""
    out = np.full(n, fill)
    out[:len(values)] = values
    return out


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

    x = res.values.tolist()
    active = {t: int(x[j]) for t, j in h.active.items()}
    # report the realized stage peak, not the (possibly slack) epigraph value
    peak = max(power_of(active[t], inputs.cfg) for t in inputs.window())
    decision = StageDecision(
        starts={key: int(v) for key, v in zip(h.starts, x) if v},
        terminations={key: int(x[j]) for key, j in h.terms.items() if x[j]},
        active=active,
        peak=peak,
        objective=res.objective if res.objective is not None else float("nan"),
        gap=res.gap,
        status=res.status,
        slack={c: int(x[j]) for c, j in h.slack.items() if x[j]},
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
