"""Domain types and pure state arithmetic for data-center job scheduling.

All job counts are exact integers; power and energy are floats with
explicit units (MW, MWh). Types are immutable or treated as immutable so
they can be shared freely across parallel experiment runs. `read_csv` is
the one way a CSV file from outside the program is read, and `write_csv`
the one way the program writes one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header`, then `rows`, to a CSV file in the csv module's
    default dialect (comma-separated, minimal quoting, `\\r\\n` line ends)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


@lru_cache(maxsize=32)
def class_table(classes: tuple[JobClass, ...]) -> np.ndarray:
    """The classes' servers (row 0) and runtimes (row 1) as a read-only
    2 x n int64 array, built once per class tuple."""
    table = np.array([[c.servers for c in classes], [c.runtime for c in classes]],
                     dtype=np.int64).reshape(2, -1)
    table.flags.writeable = False
    return table


@dataclass(eq=False)
class SystemState:
    """Job inventories at the start of hour `stage`, as int arrays whose
    row (or entry) i is class classes[i]. running is classes x (l_max - 1):
    running[i, a - 1] counts the jobs of class i started at stage - a and
    still executing, 1 <= a < runtime. n_queued, n_completed and n_arrived
    count the jobs waiting, done and observed by hour stage - 1. `queued`,
    `completed` and `running_by_class()` give the nonzero counts as dicts.
    """

    stage: int
    classes: tuple[JobClass, ...]
    running: np.ndarray
    n_queued: np.ndarray
    n_completed: np.ndarray
    n_arrived: np.ndarray

    @classmethod
    def empty(cls, stage: int, classes: tuple[JobClass, ...]) -> SystemState:
        """No job arrived, waiting, running or done before hour `stage`."""
        zeros = np.zeros(len(classes), dtype=np.int64)
        running = np.zeros((len(classes), max_runtime_of(classes) - 1), dtype=np.int64)
        return cls(stage, classes, running, zeros, zeros.copy(), zeros.copy())

    def __eq__(self, other: object) -> bool:
        # field by field: a generated __eq__ compares tuples of arrays
        return isinstance(other, SystemState) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def queued(self) -> dict[JobClass, int]:
        return _nonzero(self.classes, self.n_queued)

    @property
    def completed(self) -> dict[JobClass, int]:
        return _nonzero(self.classes, self.n_completed)

    def running_by_class(self) -> dict[JobClass, int]:
        return _nonzero(self.classes, self.running.sum(axis=1))

    def cell(self, c: JobClass, t_b: int) -> tuple[int, int] | None:
        """Where `running` counts class c started at t_b; None if nowhere."""
        age = self.stage - t_b
        return (self.classes.index(c), age - 1) if c in self.classes and 0 < age < c.runtime else None

    def held(self, n: int) -> np.ndarray:
        """Servers held by the running jobs at hours stage..stage + n - 1."""
        servers, runtime = class_table(self.classes)
        i, a = np.nonzero(self.running)
        rows = np.array([servers[i], runtime[i], self.stage - 1 - a, self.running[i, a]])
        return held_servers(rows, self.stage, n)


def _nonzero(classes: tuple[JobClass, ...], counts: np.ndarray) -> dict[JobClass, int]:
    return {c: num for c, num in zip(classes, counts.tolist()) if num}


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


def held_servers(rows: np.ndarray, first: int, n: int) -> np.ndarray:
    """Servers held at hours first..first + n - 1 by `rows`, a 4 x k int
    array of servers, runtime, start hour and count, one column per group
    of jobs: a job of `servers` machines started at t_b holds them over
    hours t_b..t_b + runtime - 1."""
    servers, runtime, t_b, num = rows
    start, end = (np.minimum(np.maximum(t - first, 0), n) for t in (t_b, t_b + runtime))
    change = np.zeros(n + 1, dtype=np.int64)
    np.add.at(change, np.concatenate([start, end]), np.concatenate([servers * num, -servers * num]))
    return np.cumsum(change[:n])


def check_state(state: SystemState) -> None:
    """Assert the state's invariants: no negative count, no running cell
    at an age the class has already finished by, and per class, queued +
    running + completed == the arrivals observed."""
    r, classes, running = state.stage, state.classes, state.running
    for name in ("running", "n_queued", "n_completed", "n_arrived"):
        if (getattr(state, name) < 0).any():
            raise DomainError(f"negative {name} count at stage {r}: {getattr(state, name).tolist()}")
    ages = np.arange(1, running.shape[1] + 1)
    for i, a in np.argwhere(running.astype(bool) & (ages >= class_table(classes)[1][:, None])):
        raise DomainError(f"running entry {(classes[i], r - int(a) - 1)} is stale at stage {r}")
    held = state.n_queued + running.sum(axis=1) + state.n_completed
    for i in np.flatnonzero(held != state.n_arrived):
        raise DomainError(f"conservation violated for {classes[i]}: queued+running+completed="
                          f"{held[i]} but observed arrivals={state.n_arrived[i]}")


def max_runtime_of(classes: Iterable[JobClass]) -> int:
    ls = [c.runtime for c in classes]
    return max(ls) if ls else 1
