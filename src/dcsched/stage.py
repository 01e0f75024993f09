"""Single-stage mixed-integer scheduling problem at hour r.

Decides job starts over the decision window, terminations of running jobs
at r, and the implied active-server trajectory, trading utilization against
carbon emissions and the stage peak power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    SystemState,
    class_table,
    held_servers,
    max_runtime_of,
    power_of,
)
from .milp import BASIC, LOWER, UPPER, CscMatrix, MilpModel, csc, solve


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

    servers: np.ndarray  # per class: servers per job
    runtime: np.ndarray  # per class: hours per job
    k: np.ndarray  # per class: the admissible starts are at hours r..r + k - 1
    allowance: np.ndarray  # class x window hour: queue + forecast arrivals up to that hour
    required: np.ndarray  # per class: minimum clearance, a rule only where k > 0
    capacity: np.ndarray  # active-server bound per window hour
    held: np.ndarray  # servers held by earlier starts per extended-window hour


@dataclass(frozen=True)
class StageInputs:
    """Everything the stage problem sees at hour r = `state.stage`.

    The forecasts are arrays in the stage model's own layout: rows follow
    `classes`, and column (or entry) o is hour r + o. job_forecast is a
    classes x window int array of expected arrivals (exact at r);
    capacity_forecast an int array of available servers over the window
    (exact at r); carbon_forecast a float array of kg CO2 / MWh over the
    extended window. t_end is the last hour of the overall run: the window
    is truncated there and no start may run past it.
    """

    cfg: DCConfig
    state: SystemState
    job_forecast: np.ndarray
    capacity_forecast: np.ndarray
    carbon_forecast: np.ndarray
    weights: ObjectiveWeights
    horizons: HorizonConfig
    t_end: int

    @property
    def classes(self) -> tuple[JobClass, ...]:
        """The state's classes, whose order every array here follows."""
        return self.state.classes

    def window(self) -> list[int]:
        r = self.state.stage
        return list(range(r, min(r + self.horizons.t_h - 1, self.t_end) + 1))

    def extended_window(self) -> list[int]:
        ts = self.window()
        l_max = max_runtime_of(self.classes)
        return list(range(ts[0], ts[-1] + l_max - 1 + 1))

    @cached_property
    def bounds(self) -> StageBounds:
        """The stage bounds, derived once per stage."""
        state, classes = self.state, self.classes
        r, n_c = state.stage, len(classes)
        n_t, n_ext = len(self.window()), len(self.extended_window())
        shapes = tuple(np.shape(f) for f in (self.job_forecast, self.capacity_forecast,
                                              self.carbon_forecast))
        if shapes != ((n_c, n_t), (n_t,), (n_ext,)):
            raise DomainError(f"forecast shapes {shapes}, expected {((n_c, n_t), (n_t,), (n_ext,))}")
        servers, runtime = class_table(classes)
        # per class: the queue, then the forecast arrivals at each window hour
        counts = np.zeros((n_c, n_t + 1), dtype=np.int64)
        counts[:, 0] = state.n_queued
        counts[:, 1:] = self.job_forecast
        available = np.cumsum(counts, axis=1)

        # starts that cannot finish by t_end are excluded so end-of-run
        # windows never strand jobs mid-execution; what is left is a prefix
        k = np.clip(self.t_end - r + 2 - runtime, 0, n_t)
        # minimum clearance: the queue plus the first half-window's
        # arrivals at hours the class may still start; a class with no
        # admissible start simply waits
        required = available[np.arange(n_c), np.minimum(n_t // 2, k)]

        held = state.held(n_ext)
        # at future hours the bound never forces termination of committed
        # work (pre-emptive termination on an unrealized forecast dip is
        # not modelled)
        capacity = np.array(self.capacity_forecast, dtype=np.int64)
        capacity[1:] = np.maximum(capacity[1:], held[1:n_t])
        return StageBounds(servers, runtime, k, available[:, 1:], required, capacity, held)


def util_coeff(r: int, t_h: int, c: JobClass, t: int) -> int:
    """Utilization reward for starting a job of class c at hour t (or the
    penalty for cancelling one started at t_b = t)."""
    return (r + t_h) * c.server_hours - t


@dataclass
class _StageHandles:
    """Where the decision quantities sit among the model's columns. Column
    i * t_h + o starts class i at hour r + o; the termination columns of
    the running entries `terms` follow, in order; the active servers at
    hours r, r + 1, ... start at column `m0` and end before the stage peak,
    column `peak`. One clearance slack column per class follows it, closed
    (ub 0) until `solve_stage` opens it."""

    terms: list[tuple[JobClass, int]]
    m0: int
    peak: int
    # the columns a fractional relaxation's neighbourhood rounds: starts and
    # terminations; the occupancy rows tie m and PD to them. Slack keeps its
    # bounds: where the LP left it at 0, the neighbourhood may still need it
    rounded: np.ndarray
    # how the previous hour's basis moves onto this hour's window
    shift: Shift


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


class Shift(NamedTuple):
    """How a basis moves one hour along a receding window. Its entries are
    the columns, then the rows (row i is entry n_cols + i): entry e takes
    the status of entry source[e]. In each hour-indexed block, offset o
    takes the status of offset o + 1 and the last offset, one of `last`,
    keeps its own; the other entries keep theirs."""

    source: np.ndarray
    last: np.ndarray  # the last offset of each block, from the end of the basis backwards

    def apply(self, basis: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """`basis` moved one hour along the window, and kept square: the
        status the first offsets held leaves, and the last offsets' status
        repeats, so the count of basic entries can drift from the count of
        rows. The last offsets, in the order of `last`, absorb the
        difference: basic ones give their status up (a column to its lower
        bound, a row to its upper one), or nonbasic ones take it."""
        status = np.concatenate(basis)[self.source]
        n_cols, n_rows = map(len, basis)
        excess = np.count_nonzero(status == BASIC) - n_rows
        if excess > 0:
            take = self.last[status[self.last] == BASIC][:excess]
            status[take] = np.where(take < n_cols, LOWER, UPPER)
        elif excess < 0:
            status[self.last[status[self.last] != BASIC][:-excess]] = BASIC
        return status[:n_cols], status[n_cols:]


def _shift(first: np.ndarray, length: np.ndarray, n: int) -> Shift:
    """The move of a basis of n entries one hour along the blocks of
    `length` entries from `first`: entry first + o takes the status of
    entry first + min(o + 1, length - 1), and an entry in no block keeps
    its own. The blocks come in increasing order."""
    source = np.arange(n)
    block, entry = _spans(first, length)
    last = first + length - 1
    source[entry] = np.minimum(entry + 1, last[block])
    return Shift(source, last[length > 1][::-1])


@lru_cache(maxsize=8)
def _stage_matrix(classes: tuple[JobClass, ...], t_h: int, slope: float,
                  terms: tuple[tuple[int, int], ...]) -> tuple[CscMatrix, Shift]:
    """The stage's constraint matrix, which depends on nothing but these:
    the classes, the window length, the power slope and each termination
    column's (servers, hours left from r). Built once per such shape and
    shared, read-only, by every stage that has it, with the map that moves
    its basis one hour along the window: the start columns of each class,
    the m columns and the occupancy, allocation, capacity and peak rows
    move; the termination columns, PD, the slack columns and the clearance
    rows do not."""
    n_c, n_pad = len(classes), t_h + max_runtime_of(classes) - 1
    servers, runtime = class_table(classes)
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
        (clr + cl_i, pd + 1 + cl_i, np.ones(n_c)),
    ]
    a = csc(entries, (pk + t_h, pd + 1 + n_c))
    # the basis's entries are the columns, then the rows
    n = a.shape[1]
    first = np.concatenate([np.arange(n_c) * t_h, [m0, n], n + n_pad + np.arange(n_c) * t_h,
                            [n + cap, n + pk]])
    length = np.concatenate([np.full(n_c, t_h), [n_pad, n_pad], np.full(n_c + 2, t_h)])
    shift = _shift(first, length, n + a.shape[0])
    for part in (a.data, a.indices, a.indptr, *shift):
        part.flags.writeable = False
    return a, shift


def build_stage(inputs: StageInputs) -> tuple[MilpModel, _StageHandles]:
    """The stage MILP and the column of each decision quantity.

    The model always lays out the full window: t_h start hours per class
    and t_h + l_max - 1 active-server hours. The end of the run and the
    inadmissible starts are stated by bounds, not by leaving columns or
    rows out: such starts and the active servers past the extended window
    are fixed at 0, and the rows of window hours past t_end and the
    clearance rows of classes with no admissible start are free. The slack
    columns are closed by their bounds. So every stage of a run without
    terminations receives the same matrix object, and each relaxation can
    start from the basis of the hour before, moved one hour along the
    window; a stage with no such basis starts from its greedy one
    (:func:`greedy_basis`), which the handles locate.
    """
    r, cfg, t_h = inputs.state.stage, inputs.cfg, inputs.horizons.t_h
    b, classes = inputs.bounds, inputs.classes
    (n_c, n_t), n_ext = b.allowance.shape, len(b.held)  # the hours before t_end
    n_pad = t_h + max_runtime_of(classes) - 1

    # columns: starts by (class, window offset), terminations, m per
    # extended-window hour, PD, then slack per class
    # termination variables exist only when the realized hour-r capacity
    # cannot hold the prior commitments; a job is never cancelled for
    # economic gain or on an unrealized forecast dip. Their columns take
    # the running cells by start hour, then by class: oldest age first
    running = inputs.state.running
    cut = age = np.zeros(0, dtype=np.int64)
    if b.held[0] > b.capacity[0]:
        hour, cut = np.nonzero(running[:, ::-1].T)
        age = running.shape[1] - hour
    a, shift = _stage_matrix(classes, t_h, cfg.slope_mw_per_server,
                             tuple(zip(b.servers[cut].tolist(), (b.runtime[cut] - age).tolist())))
    n = a.shape[1]
    cls, off = np.divmod(np.arange(n_c * t_h), t_h)
    n_s, m0 = len(cls), len(cls) + len(cut)
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
                         running[cut, age - 1],
                         _padded(np.full(n_ext, cfg.total_servers), n_pad, 0.0), [np.inf],
                         np.zeros(n_c)])
    integer = np.ones(n, dtype=bool)
    integer[pd] = False

    # objective: utilization minus weighted carbon and peak terms
    at_r = np.array([util_coeff(r, t_h, c, r) for c in classes], dtype=int)
    obj = np.zeros(n)
    obj[:n_s] = at_r[cls] - off  # util_coeff at hour r + off
    obj[n_s:m0] = -(at_r[cut] + age)  # util_coeff at the start hour r - age
    constant = 0.0
    lambda_ce = inputs.weights.lambda_ce
    if lambda_ce:
        rates = inputs.carbon_forecast.tolist()
        obj[m0:m0 + n_ext] -= lambda_ce * np.array(rates, dtype=float) * cfg.slope_mw_per_server
        for cr in rates:
            constant -= lambda_ce * cr * cfg.p_idle_mw
    obj[pd] = -inputs.weights.lambda_pd
    obj[pd + 1:] = -10.0 * max(at_r.tolist(), default=1)

    rounded = np.ones(n, dtype=bool)
    rounded[m0:] = False
    h = _StageHandles([(classes[i], t_b) for i, t_b in zip(cut.tolist(), (r - age).tolist())],
                      m0, pd, rounded, shift)
    return MilpModel(obj, np.zeros(n), ub, integer, a, lo, hi, constant), h


def greedy_basis(b: StageBounds, h: _StageHandles) -> tuple[np.ndarray, np.ndarray]:
    """The basis of the plan that starts every job the hour it becomes
    available, on the stage model of bounds `b` and handles `h`: where a
    stage's first relaxation starts when no basis of the hour before
    applies (an initial basis from the model's structure; Bixby,
    "Implementing the simplex method: the initial basis", ORSA J. Computing
    4, 1992).

    Every admissible start (i, o) is basic, its allocation row at its upper
    bound, so it takes the jobs that become available at hour r + o: the
    queue and the arrivals at r at o = 0, and at most hours none. Every
    other start column sits at its lower bound with its allocation row
    basic. The clearance and capacity rows, the m columns and PD are basic;
    the occupancy rows fix the m columns, and the peak row of the window
    hour where the plan holds the most servers sits at its upper bound and
    fixes PD, the other peak rows basic. Every other column sits at its
    lower bound. Each (class, hour) pair gives one basic entry, so the
    basis is square, and it is block-triangular with a nonzero diagonal, so
    it is nonsingular.

    Making only the starts that take jobs basic poses the same vertex, but
    the optimum HiGHS reaches from that basis moves one hour along with
    more pivots: about twice as many in the hours that follow, on the desk
    grid and on the fleet."""
    (n_c, n_t), n_pad = b.allowance.shape, h.peak - h.m0
    t_h = (h.m0 - len(h.terms)) // n_c
    admissible = np.arange(t_h) < b.k[:, None]  # k <= n_t <= t_h
    i, o = np.nonzero(admissible)
    added = np.diff(b.allowance, axis=1, prepend=0)  # the jobs that become available each hour
    busy = b.held[:n_t] + held_servers(np.array([b.servers[i], b.runtime[i], o, added[i, o]]),
                                       0, n_t)
    started = admissible.ravel()
    col = np.full(h.peak + 1 + n_c, LOWER, dtype=np.int8)
    col[:len(started)][started] = BASIC
    col[h.m0:h.peak + 1] = BASIC
    row = np.full(n_pad + len(started) + n_c + 2 * t_h, BASIC, dtype=np.int8)
    row[:n_pad] = LOWER
    row[n_pad:n_pad + len(started)][started] = UPPER
    row[len(row) - t_h + np.argmax(busy)] = UPPER
    return col, row


def _padded(values, n: int, fill: float) -> np.ndarray:
    """`values` followed by `fill` up to length n."""
    out = np.full(n, fill)
    out[:len(values)] = values
    return out


@dataclass
class WarmStart:
    """The newest optimal relaxation basis of a run and the constraint
    matrix object it was found on; :func:`solve_stage` reads and replaces
    it. Kept per run, never shared, so a decision depends only on the run's
    own history."""

    matrix: CscMatrix | None = None
    basis: tuple[np.ndarray, np.ndarray] | None = None


def solve_stage(
    inputs: StageInputs,
    gap_tol: float = 1e-4,
    time_limit: float = 60.0,
    warm: WarmStart | None = None,
) -> StageDecision:
    """Solve the stage problem; on infeasible minimum clearance, open the
    slack columns of the classes with a clearance rule, re-solve at their
    penalty and return the relaxed optimum. A fractional relaxation has its
    starts and terminations rounded in its neighbourhood before full
    branch-and-bound.

    The run's bases pass from hour to hour in `warm`; a call without it
    runs as a run's first hour, on a fresh :class:`WarmStart`. When the
    stored basis was found on this stage's very matrix object, the first
    relaxation starts from it moved one hour along the window. Otherwise
    (any other matrix, even an equal one, or none stored) it starts from
    the stage's greedy basis (:func:`greedy_basis`). The re-solve starts
    from the newest basis found on the matrix as it was found (from a moved
    one, overload stages fall on other tied optima), or cold if there is
    none (from the greedy basis, more overload re-solves were fractional).
    The newest basis found is then stored; the greedy one never is."""
    r = inputs.state.stage
    warm = WarmStart() if warm is None else warm
    model, h = build_stage(inputs)
    basis = warm.basis if warm.matrix is model.a else None
    start = greedy_basis(inputs.bounds, h) if basis is None else h.shift.apply(basis)
    res = solve(model, gap_tol=gap_tol, time_limit=time_limit, basis=start, rounded=h.rounded)
    if res.status == "infeasible":
        basis = res.basis or basis  # the closed relaxation's basis, if it was feasible
        ub = model.ub.copy()
        ub[h.peak + 1:] = np.where(inputs.bounds.k > 0, np.inf, 0.0)
        res = solve(replace(model, ub=ub), gap_tol=gap_tol, time_limit=time_limit, basis=basis,
                    rounded=h.rounded)
    basis = res.basis or basis
    if basis is not None:
        warm.matrix, warm.basis = model.a, basis
    if res.status in ("infeasible", "error"):
        raise StageError(r, f"{res.status}: {res.message}")

    # every column but PD is integral, and PD is not read
    t_h, x = inputs.horizons.t_h, res.values.astype(np.int64)
    n_s = len(inputs.classes) * t_h
    active = x[h.m0:h.m0 + len(inputs.bounds.held)]
    decision = StageDecision(
        starts=x[:n_s].reshape(-1, t_h),
        terminations={key: num for key, num in zip(h.terms, x[n_s:h.m0].tolist()) if num},
        active=active,
        # the realized stage peak, not the (possibly slack) epigraph value
        peak=max(power_of(m, inputs.cfg) for m in active[:len(inputs.window())].tolist()),
        objective=res.objective,
        gap=res.gap,
        status=res.status,
        slack=x[h.peak + 1:],
    )
    violations = validate_decision(inputs, decision)
    if violations:
        raise StageError(r, "decision fails feasibility recheck: " + "; ".join(violations))
    return decision


def validate_decision(inputs: StageInputs, decision: StageDecision) -> list[str]:
    """Re-check the scheduling rules on the decision's own integer counts,
    exactly, against the stage bounds; never reads the model. An array of
    another shape than the stage's, and a start, termination or slack that
    the model has no column for, are reported."""
    state, classes, b = inputs.state, inputs.classes, inputs.bounds
    r = state.stage
    (n_c, n_t), n_ext = b.allowance.shape, len(b.held)
    shapes = {"starts": (n_c, inputs.horizons.t_h), "active": (n_ext,), "slack": (n_c,)}
    bad = [f"{name} has shape {np.shape(getattr(decision, name))}, expected {shape}"
           for name, shape in shapes.items() if np.shape(getattr(decision, name)) != shape]
    if bad:
        return bad
    starts, active, slack = decision.starts, decision.active, decision.slack
    bad = [f"negative count {starts[i, o]} for {(classes[i], r + o)}"
           for i, o in np.argwhere(starts < 0).tolist()]
    bad += [f"negative count {num} for {key}" for key, num in decision.terminations.items() if num < 0]
    bad += [f"negative count {slack[i]} for {classes[i]}" for i in np.flatnonzero(slack < 0).tolist()]
    late = (starts != 0) & (np.arange(starts.shape[1]) >= b.k[:, None])
    bad += [f"class {classes[i]} started at inadmissible hour {r + o}"
            for i, o in np.argwhere(late).tolist()]
    bad += [f"slack for class {classes[i]}, which has no clearance rule"
            for i in np.flatnonzero((slack != 0) & (b.k == 0)).tolist()]
    if any(decision.terminations.values()) and b.held[0] <= b.capacity[0]:
        bad.append(f"terminations without a shortfall: {b.held[0]} <= {b.capacity[0]}")
    for (c, t_b), num in decision.terminations.items():
        cell = state.cell(c, t_b)
        running = 0 if cell is None else int(state.running[cell])
        if num > running:
            bad.append(f"terminating {num} of {(c, t_b)}, only {running} running")

    i, o = np.nonzero(starts)
    occupied = b.held + held_servers(np.array([b.servers[i], b.runtime[i], r + o, starts[i, o]]),
                                     r, n_ext)
    for (c, t_b), num in decision.terminations.items():
        occupied[max(t_b - r, 0):max(t_b + c.runtime - r, 0)] -= c.servers * num
    for o in np.flatnonzero(occupied != active).tolist():
        bad.append(f"active-server mismatch at t={r + o}: {occupied[o]} != {active[o]}")

    started = np.cumsum(starts[:, :n_t], axis=1)
    over = started > b.allowance
    short = (b.k > 0) & (started[:, -1] + slack < b.required)
    for i in np.flatnonzero(over.any(axis=1) | short).tolist():
        c = classes[i]
        bad += [f"class {c} over-allocated by hour {r + o}" for o in np.flatnonzero(over[i]).tolist()]
        if short[i]:
            bad.append(f"class {c} clears {started[i, -1]} of {b.required[i]} required")

    for o in np.flatnonzero(active[:n_t] > b.capacity).tolist():
        bad.append(f"capacity exceeded at t={r + o}: {active[o]} > {b.capacity[o]}")
    return bad
