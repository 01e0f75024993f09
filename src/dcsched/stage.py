"""Single-stage mixed-integer scheduling problem at hour r.

Decides job starts over the decision window, terminations of running jobs
at r, and the implied active-server trajectory, trading utilization against
carbon emissions and the stage peak power.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np
from scipy import sparse

from .core import (
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    SystemState,
    held_servers,
    max_runtime_of,
    power_of,
    server_entries,
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
    read by both the model and the exact re-check: integer arrays by class
    (in the order of `StageInputs.classes`) and by hour from r."""

    codes: np.ndarray  # per class: servers * 2**32 + runtime, see `_rows`
    k: np.ndarray  # per class: the admissible starts are at hours r..r + k - 1
    allowance: np.ndarray  # class x window hour: queue + forecast arrivals up to that hour
    required: np.ndarray  # per class: minimum clearance, a rule only where k > 0
    capacity: np.ndarray  # active-server bound per window hour
    held: np.ndarray  # servers held by earlier starts per extended-window hour


def _rows(codes: np.ndarray, servers: np.ndarray, runtime: np.ndarray) -> np.ndarray:
    """The row in `codes` of each class (servers, runtime); len(codes) for a
    class outside them."""
    order = np.append(np.argsort(codes), len(codes))
    code = servers * 2**32 + runtime
    row = order[np.searchsorted(codes[order[:-1]], code)]
    return np.where(np.append(codes, -1)[row] == code, row, len(codes))


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
        state, classes = self.state, self.classes
        r, n_c, n_t = state.stage, len(classes), len(self.window())
        declared = set(classes)
        for c in state.queued:
            if c not in declared:
                raise DomainError(f"queued class {c} outside declared class set")
        runtime = np.array([c.runtime for c in classes], dtype=np.int64)
        codes = np.array([c.servers for c in classes], dtype=np.int64) * 2**32 + runtime
        servers_f, runtime_f, hour, num = server_entries(self.job_forecast)
        row = _rows(codes, servers_f, runtime_f)
        if (row == n_c).any():
            c, _ = list(self.job_forecast)[np.argmax(row == n_c)]
            raise DomainError(f"forecast class {c} outside declared class set")
        # per class: the queue, then the forecast arrivals at each window hour
        counts = np.zeros((n_c, n_t + 1), dtype=np.int64)
        counts[:, 0] = [state.queued.get(c, 0) for c in classes]
        seen = (hour >= r) & (hour < r + n_t)
        np.add.at(counts, (row[seen], hour[seen] - r + 1), num[seen])
        available = np.cumsum(counts, axis=1)

        # starts that cannot finish by t_end are excluded so end-of-run
        # windows never strand jobs mid-execution; what is left is a prefix
        k = np.full(n_c, n_t, dtype=np.int64)
        if self.t_end is not None:
            k = np.clip(self.t_end - r + 2 - runtime, 0, n_t)
        # minimum clearance: the queue plus the first half-window's
        # arrivals at hours the class may still start; a class with no
        # admissible start simply waits
        required = available[np.arange(n_c), np.minimum(n_t // 2, k)]

        held = held_servers(server_entries(state.running), r, len(self.extended_window()))
        # at future hours the bound never forces termination of committed
        # work (pre-emptive termination on an unrealized forecast dip is
        # not modelled)
        capacity = np.array([self.capacity_forecast[t] for t in range(r, r + n_t)], dtype=np.int64)
        capacity[1:] = np.maximum(capacity[1:], held[1:n_t])
        return StageBounds(codes, k, available[:, 1:], required, capacity, held)


def util_coeff(r: int, t_h: int, c: JobClass, t: int) -> int:
    """Utilization reward for starting a job of class c at hour t (or the
    penalty for cancelling one started at t_b = t)."""
    return (r + t_h) * c.server_hours - t


@dataclass
class _StageHandles:
    """The model column of each decision quantity."""

    classes: tuple[JobClass, ...]
    r: int
    t_h: int  # start column j starts class j // t_h at hour r + j % t_h; they come first
    terms: dict[tuple[JobClass, int], int]
    active: dict[int, int]
    peak: int
    slack: dict[JobClass, int]
    # the columns a fractional relaxation's neighbourhood rounds: starts,
    # terminations and slack; the occupancy rows tie m and PD to the starts
    rounded: np.ndarray

    @property
    def starts(self) -> list[tuple[JobClass, int]]:
        """(class, hour) of each start column, in column order."""
        return [(c, self.r + o) for c in self.classes for o in range(self.t_h)]


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


@lru_cache(maxsize=8)
def _stage_matrix(classes: tuple[JobClass, ...], t_h: int, slope: float, with_slack: bool,
                  terms: tuple[tuple[int, int], ...]) -> sparse.csr_matrix:
    """The stage's constraint matrix, which depends on nothing but these:
    the classes, the window length, the power slope, the slack columns and
    each termination column's (servers, hours left from r). Built once per
    such shape and shared, read-only, by every stage that has it."""
    n_c, n_pad = len(classes), t_h + max_runtime_of(classes) - 1
    servers, runtime = np.array([(c.servers, c.runtime) for c in classes], dtype=int).reshape(-1, 2).T
    cls, _, occupancy, allocation = start_block(np.full(n_c, t_h), servers, runtime, t_h, n_pad)
    v_servers, v_left = np.array(terms, dtype=int).reshape(-1, 2).T
    n_s, m0 = len(cls), len(cls) + len(terms)
    pd = m0 + n_pad
    # rows: active-server accounting per extended-window hour, allocation,
    # clearance, capacity, then the stage peak power epigraph
    clr = n_pad + t_h * n_c
    cap, pk = clr + n_c, clr + n_c + t_h
    ext_i, ts_i, cl_i = np.arange(n_pad), np.arange(t_h), np.arange(n_c)
    # a terminated job frees its servers from r until it would have ended
    v, e = _spans(np.zeros(len(terms), dtype=int), np.minimum(v_left, n_pad))
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
    a = csr(entries, (pk + t_h, pd + 1 + (n_c if with_slack else 0)))
    for part in (a.data, a.indices, a.indptr):
        part.flags.writeable = False
    return a


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
    stage of a run without terminations or slack receives the same matrix
    object, and each relaxation can start from the basis of the hour before.
    """
    r, cfg, t_h = inputs.state.stage, inputs.cfg, inputs.horizons.t_h
    b, classes = inputs.bounds, inputs.classes
    (n_c, n_t), n_ext = b.allowance.shape, len(b.held)  # the hours before t_end
    n_pad = t_h + max_runtime_of(classes) - 1

    # columns: starts by (class, window offset), terminations, m per
    # extended-window hour, PD, then slack per class
    # termination variables exist only when the realized hour-r capacity
    # cannot hold the prior commitments; a job is never cancelled for
    # economic gain or on an unrealized forecast dip
    running = []
    if b.held[0] > b.capacity[0]:
        running = sorted(inputs.state.running.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    a = _stage_matrix(classes, t_h, cfg.slope_mw_per_server, with_slack,
                      tuple((c.servers, t_b + c.runtime - r) for (c, t_b), _ in running))
    n = a.shape[1]
    cls, off = np.divmod(np.arange(n_c * t_h), t_h)
    n_s, m0 = len(cls), len(cls) + len(running)
    pd = m0 + n_pad

    neg_held = _padded(-b.held, n_pad, 0.0)
    allowance = np.full((n_c, t_h), np.inf)
    allowance[:, :n_t] = b.allowance
    required = np.where(b.k > 0, b.required, -np.inf)
    lo = np.concatenate([neg_held, np.full(t_h * n_c, -np.inf), required, np.full(2 * t_h, -np.inf)])
    hi = np.concatenate([neg_held, allowance.ravel(), np.full(n_c, np.inf),
                         _padded(b.capacity, t_h, np.inf),
                         _padded(np.full(n_t, -cfg.p_idle_mw), t_h, np.inf)])
    ub = np.concatenate([np.where(off < b.k[cls], allowance[cls, n_t - 1], 0.0),
                         [num for _, num in running],
                         _padded(np.full(n_ext, cfg.total_servers), n_pad, 0.0), [np.inf],
                         np.where(b.k > 0, np.inf, 0.0) if with_slack else []])
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
        rates = [inputs.carbon_forecast[t] for t in range(r, r + n_ext)]
        obj[m0:m0 + n_ext] -= lambda_ce * np.array(rates, dtype=float) * cfg.slope_mw_per_server
        for cr in rates:
            constant -= lambda_ce * cr * cfg.p_idle_mw
    obj[pd] = -inputs.weights.lambda_pd
    obj[pd + 1:] = -10.0 * max(at_r.tolist(), default=1)

    rounded = np.ones(n, dtype=bool)
    rounded[m0:pd + 1] = False
    h = _StageHandles(classes, r, t_h, {key: n_s + i for i, (key, _) in enumerate(running)},
                      dict(zip(range(r, r + n_ext), range(m0, m0 + n_ext))), pd,
                      {c: pd + 1 + i for i, c in enumerate(classes) if with_slack and b.k[i] > 0},
                      rounded)
    return MilpModel(obj, np.zeros(n), ub, integer, a, lo, hi, constant), h


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
    run's last optimal relaxation basis into both solves; a fractional
    relaxation has its starts, terminations and slack rounded in its
    neighbourhood before full branch-and-bound."""
    r = inputs.state.stage
    model, h = build_stage(inputs, with_slack=False)
    res = solve(model, gap_tol=gap_tol, time_limit=time_limit, warm=warm, rounded=h.rounded)
    if res.status == "infeasible":
        model, h = build_stage(inputs, with_slack=True)
        res = solve(model, gap_tol=gap_tol, time_limit=time_limit, warm=warm, rounded=h.rounded)
    if res.status in ("infeasible", "error"):
        raise StageError(r, f"{res.status}: {res.message}")

    x = res.values.tolist()
    active = {t: int(x[j]) for t, j in h.active.items()}
    # report the realized stage peak, not the (possibly slack) epigraph value
    peak = max(power_of(active[t], inputs.cfg) for t in inputs.window())
    t_h, classes = h.t_h, h.classes
    decision = StageDecision(
        starts={(classes[j // t_h], r + j % t_h): int(x[j])
                for j in np.flatnonzero(res.values[:len(classes) * t_h]).tolist()},
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
    exactly, against the stage bounds; never reads the model. A start,
    termination or slack that the model has no column for is reported."""
    state = inputs.state
    r = state.stage
    b = inputs.bounds
    (n_c, n_t), n_ext = b.allowance.shape, len(b.held)
    starts, keys = server_entries(decision.starts), list(decision.starts)
    bad = [f"negative count {starts[3, i]} for {keys[i]}" for i in np.flatnonzero(starts[3] < 0)]
    for table in (decision.terminations, decision.slack):
        for key, num in table.items():
            if num < 0:
                bad.append(f"negative count {num} for {key}")
    row = _rows(b.codes, starts[0], starts[1])  # n_c: undeclared, no admissible hour
    off = starts[2] - r
    for i in np.flatnonzero((starts[3] != 0) & ((off < 0) | (off >= np.append(b.k, 0)[row]))):
        bad.append(f"class {keys[i][0]} started at inadmissible hour {keys[i][1]}")
    slack = np.zeros(n_c, dtype=np.int64)
    for c, num in decision.slack.items():
        if c in inputs.classes and b.k[inputs.classes.index(c)]:
            slack[inputs.classes.index(c)] += num
        elif num:
            bad.append(f"slack for class {c}, which has no clearance rule")
    if any(decision.terminations.values()) and b.held[0] <= b.capacity[0]:
        bad.append(f"terminations without a shortfall: {b.held[0]} <= {b.capacity[0]}")
    for (c, t_b), num in decision.terminations.items():
        if num > state.running.get((c, t_b), 0):
            bad.append(f"terminating {num} of {(c, t_b)}, only {state.running.get((c, t_b), 0)} running")

    freed = server_entries(decision.terminations) * [[1], [1], [1], [-1]]
    occupied = b.held + held_servers(np.hstack([starts, freed]), r, n_ext)
    active = np.array([decision.active.get(t, 0) for t in range(r, r + n_ext)])
    for o in np.flatnonzero(occupied != active).tolist():
        bad.append(f"active-server mismatch at t={r + o}: {occupied[o]} != {decision.active.get(r + o)}")

    started = np.zeros((n_c + 1, n_t), dtype=np.int64)
    inside = (off >= 0) & (off < n_t)
    np.add.at(started, (row[inside], off[inside]), starts[3, inside])
    started = np.cumsum(started[:n_c], axis=1)
    over = started > b.allowance
    short = (b.k > 0) & (started[:, -1] + slack < b.required)
    for i in np.flatnonzero(over.any(axis=1) | short).tolist():
        c = inputs.classes[i]
        bad += [f"class {c} over-allocated by hour {r + o}" for o in np.flatnonzero(over[i]).tolist()]
        if short[i]:
            bad.append(f"class {c} clears {started[i, -1]} of {b.required[i]} required")

    for o in np.flatnonzero(active[:n_t] > b.capacity).tolist():
        bad.append(f"capacity exceeded at t={r + o}: {decision.active.get(r + o)} > {b.capacity[o]}")
    return bad
