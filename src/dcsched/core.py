"""Domain types and pure state arithmetic for data-center job scheduling.

All job counts are exact integers; power and energy are floats with
explicit units (MW, MWh). Types are immutable or treated as immutable so
they can be shared freely across parallel experiment runs. `read_csv` is
the one way a CSV file from outside the program is read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class DomainError(ValueError):
    """Raised when a value violates a domain precondition."""


def read_csv(path: str, header: Sequence[str], parse: Callable[[list[str]], T]) -> list[T]:
    """The rows of a CSV file whose header starts with `header`, each as
    `parse` makes it; blank rows are skipped. A row with too few columns,
    a cell that reads as nan or inf, or a row `parse` rejects with a
    ValueError (a DomainError included) fails as `path:line: bad row`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first[: len(header)]] != list(header):
            raise DomainError(f"{path}: expected header {','.join(header)!r}")
        rows: list[T] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) < len(header):
                    raise ValueError(f"expected {len(header)} columns")
                for cell in row:
                    if _non_finite(cell):
                        raise ValueError(f"non-finite number {cell!r}")
                rows.append(parse(row))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad row {row!r}: {exc}") from exc
    return rows


def _non_finite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


@dataclass(frozen=True, order=True)
class JobClass:
    """An aggregated job group: `servers` machines for `runtime` whole hours.

    Job classes key most of the run's tables, so the hash is computed once:
    the value a plain dataclass would give, hash((servers, runtime))."""

    servers: int
    runtime: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.servers < 1 or self.runtime < 1:
            raise DomainError(f"job class needs servers >= 1 and runtime >= 1, got {self!r}")
        object.__setattr__(self, "_hash", hash((self.servers, self.runtime)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def server_hours(self) -> int:
        return self.servers * self.runtime


@dataclass(frozen=True)
class DCConfig:
    """Facility configuration: fleet size and the affine power model."""

    total_servers: int
    p_peak_mw: float
    p_idle_mw: float

    def __post_init__(self) -> None:
        if self.total_servers < 1:
            raise DomainError("total_servers must be >= 1")
        if not (0.0 <= self.p_idle_mw <= self.p_peak_mw):
            raise DomainError("need 0 <= p_idle_mw <= p_peak_mw")

    @property
    def slope_mw_per_server(self) -> float:
        """Marginal power of one active server."""
        return (self.p_peak_mw - self.p_idle_mw) / self.total_servers


@dataclass(frozen=True)
class HorizonConfig:
    """Decision window length and forecast visibility, all in hours."""

    t_h: int
    t_j: int
    t_c: int

    def __post_init__(self) -> None:
        if min(self.t_h, self.t_j, self.t_c) < 1:
            raise DomainError("all horizons must be >= 1")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights on the carbon (per kg CO2) and peak-demand (per MW) terms."""

    lambda_ce: float = 0.0
    lambda_pd: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.lambda_ce < math.inf and 0 <= self.lambda_pd < math.inf):
            raise DomainError("objective weights must be non-negative and finite")


@dataclass(frozen=True)
class ArrivalProfile:
    """Job arrival counts per (hour, class), hours 1..horizon.

    `counts` is the edge form, as a trace or a CSV gives it. Inside the
    program the arrivals are read only as a classes x hours table
    (`table`): a run's stage forecasts and state step share one, and the
    offline bound builds its own."""

    counts: Mapping[tuple[int, JobClass], int]
    horizon: int
    _totals: dict[JobClass, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        totals: dict[JobClass, int] = {}
        for (t, c), num in self.counts.items():
            if num < 0:
                raise DomainError(f"negative arrival count for {(t, c)}")
            if not (1 <= t <= self.horizon):
                raise DomainError(f"arrival hour {t} outside 1..{self.horizon}")
            totals[c] = totals.get(c, 0) + num
        object.__setattr__(self, "_totals", totals)

    def classes(self) -> frozenset[JobClass]:
        return frozenset(c for c, num in self._totals.items() if num)

    def totals(self) -> dict[JobClass, int]:
        return dict(self._totals)

    def table(self, classes: Sequence[JobClass]) -> np.ndarray:
        """The counts as a classes x hours int array: row i holds class
        classes[i] and column t - 1 hour t. A class outside `classes` is an
        error."""
        row = {c: i for i, c in enumerate(classes)}
        out = np.zeros((len(classes), self.horizon), dtype=np.int64)
        for (t, c), num in self.counts.items():
            if c not in row:
                raise DomainError(f"arrival class {c} outside declared class set")
            out[row[c], t - 1] = num
        return out


@dataclass
class SystemState:
    """Job/server inventories at the start of hour `stage`.

    running maps (class, start hour) -> count of jobs still executing;
    queued and completed map class -> count; arrived maps class -> total
    arrivals observed so far (hours < stage), used for the conservation
    invariant.
    """

    stage: int
    running: dict[tuple[JobClass, int], int] = field(default_factory=dict)
    queued: dict[JobClass, int] = field(default_factory=dict)
    completed: dict[JobClass, int] = field(default_factory=dict)
    arrived: dict[JobClass, int] = field(default_factory=dict)

    def running_by_class(self) -> dict[JobClass, int]:
        out: dict[JobClass, int] = {}
        for (c, _), num in self.running.items():
            out[c] = out.get(c, 0) + num
        return out


@dataclass(eq=False)
class StageDecision:
    """Control actions chosen at stage r, in the stage model's own layout:
    rows follow the stage's classes, and column (or entry) o is hour r + o.

    starts is a classes x t_h int array of job starts over the decision
    window (0 past the end of the run); terminations maps (class, original
    start hour) -> count of running jobs cancelled at r; active is an int
    array of active servers over the extended window; slack holds the
    clearance slack of each class; peak is the stage peak power in MW.
    A decision built for `advance_state`, which reads only the starts at r
    and the terminations, may leave active and slack empty.
    """

    starts: np.ndarray
    terminations: dict[tuple[JobClass, int], int] = field(default_factory=dict)
    active: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    peak: float = 0.0
    objective: float = 0.0
    gap: float = 0.0
    status: str = "optimal"
    slack: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def power_of(m: int, cfg: DCConfig) -> float:
    """Facility power in MW with `m` active servers (affine in m)."""
    if not (0 <= m <= cfg.total_servers):
        raise DomainError(f"active servers {m} outside 0..{cfg.total_servers}")
    return cfg.slope_mw_per_server * m + cfg.p_idle_mw


def server_entries(entries: Mapping[tuple[JobClass, int], int]) -> np.ndarray:
    """(class, start hour) -> count entries as a 4 x n int64 array, one
    column per entry; its rows are servers, runtime, start hour and count."""
    classes, hours = zip(*entries) if entries else ((), ())
    return np.array([[c.servers for c in classes], [c.runtime for c in classes], hours,
                     list(entries.values())], dtype=np.int64).reshape(4, -1)


def held_servers(rows: np.ndarray, first: int, n: int) -> np.ndarray:
    """Servers held at hours first..first + n - 1 by `rows` as
    `server_entries` lays them out: a job of class c started at t_b holds
    c.servers machines over hours t_b..t_b + c.runtime - 1."""
    servers, runtime, t_b, num = rows
    start, end = (np.minimum(np.maximum(t - first, 0), n) for t in (t_b, t_b + runtime))
    change = np.zeros(n + 1, dtype=np.int64)
    np.add.at(change, np.concatenate([start, end]), np.concatenate([servers * num, -servers * num]))
    return np.cumsum(change[:n])


def server_commitments(state: SystemState, max_runtime: int) -> list[int]:
    """Derived commitment vector: index l-1 holds servers committed for
    exactly l more hours (l = 1..max_runtime-1)."""
    u = [0] * max(max_runtime - 1, 0)
    r = state.stage
    for (c, t_b), num in state.running.items():
        remaining = c.runtime - (r - t_b)
        if not (1 <= remaining <= max_runtime - 1):
            raise DomainError(
                f"running entry {(c, t_b)} has remaining time {remaining} "
                f"outside 1..{max_runtime - 1} at stage {r}"
            )
        u[remaining - 1] += c.servers * num
    return u


def check_state(state: SystemState, max_runtime: int) -> list[int]:
    """Assert structural invariants: non-negative counts and no running
    entry that should already have finished. Returns the derived
    commitment vector (see `server_commitments`)."""
    r = state.stage
    for (c, t_b), num in state.running.items():
        if num < 0:
            raise DomainError(f"negative running count for {(c, t_b)}")
        if c.runtime == 1 or t_b <= r - c.runtime:
            raise DomainError(f"running entry {(c, t_b)} is stale at stage {r}")
    for name, table in (("queued", state.queued), ("completed", state.completed)):
        for c, num in table.items():
            if num < 0:
                raise DomainError(f"negative {name} count for {c}")
    # conservation: queued + running + completed == observed arrivals
    per_class = state.running_by_class()
    classes = set(per_class) | set(state.queued) | set(state.completed) | set(state.arrived)
    for c in classes:
        total = (
            state.queued.get(c, 0)
            + per_class.get(c, 0)
            + state.completed.get(c, 0)
        )
        if total != state.arrived.get(c, 0):
            raise DomainError(
                f"conservation violated for {c}: queued+running+completed={total} "
                f"but observed arrivals={state.arrived.get(c, 0)}"
            )
    # derived commitment vector must be computable (raises on stale entries)
    return server_commitments(state, max_runtime)


def max_runtime_of(classes: Iterable[JobClass]) -> int:
    ls = [c.runtime for c in classes]
    return max(ls) if ls else 1
