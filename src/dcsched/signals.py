"""Exogenous hourly series: carbon emission rates, server capacity, and
their noisy forecasts. All generators are pure functions of their seed."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, read_csv

CARBON = "carbon"
CAPACITY = "capacity"


@dataclass(frozen=True)
class SignalSeries:
    """Hourly values, hour 1 at index 0."""

    kind: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in (CARBON, CAPACITY):
            raise DomainError(f"unknown signal kind {self.kind!r}")
        for i, v in enumerate(self.values):
            if not 0 <= v < math.inf:
                raise DomainError(f"{self.kind} value {v} at hour {i + 1} is negative or not finite")
            if self.kind == CAPACITY and v != int(v):
                raise DomainError(f"capacity value {v} at hour {i + 1} is not an integer")

    def __len__(self) -> int:
        return len(self.values)

    def require_hours(self, hours: int) -> None:
        """Raise unless the series covers hours 1..hours."""
        if len(self.values) < hours:
            raise DomainError(f"{self.kind} series covers {len(self.values)} of {hours} hours")

    def at(self, t: int) -> float:
        """Value at hour t, holding the last value past the series end."""
        if t < 1:
            raise DomainError(f"hour {t} < 1")
        return self.values[min(t, len(self.values)) - 1]


def noisy_forecast(
    series: SignalSeries,
    sigma: float,
    seed: int,
    total_servers: int | None = None,
) -> SignalSeries:
    """Multiplicative-Gaussian forecast: out(t) = xi(t) * in(t) with
    xi ~ Normal(mean 1, stddev sigma), independent per hour.

    Capacity outputs are rounded to integers and clamped to
    [0, total_servers]; carbon outputs are clamped at 0.
    """
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    xi = rng.normal(1.0, sigma, size=len(series))
    out = np.asarray(series.values) * xi
    if series.kind == CAPACITY:
        hi = total_servers if total_servers is not None else max(series.values, default=0)
        out = np.clip(np.rint(out), 0, hi)
    else:
        out = np.maximum(out, 0.0)
    return SignalSeries(series.kind, tuple(float(v) for v in out))


def capacity_walk(
    total_servers: int,
    t_end: int,
    step_stddev: float = 0.05,
    floor: float = 0.5,
    seed: int = 0,
) -> SignalSeries:
    """Random-walk server availability: starts at the full fleet, takes
    Gaussian integer steps of stddev `step_stddev * total_servers`, clamped
    to [floor * total_servers, total_servers]."""
    if step_stddev < 0:
        raise DomainError("step_stddev must be >= 0")
    if not (0.0 <= floor <= 1.0):
        raise DomainError("floor must be in [0, 1]")
    rng = np.random.default_rng(seed)
    lo = floor * total_servers
    values = [float(total_servers)]
    for _ in range(t_end - 1):
        step = round(rng.normal(0.0, step_stddev * total_servers))
        values.append(float(min(max(values[-1] + step, math.ceil(lo)), total_servers)))
    return SignalSeries(CAPACITY, tuple(values))


def constant_capacity(total_servers: int, t_end: int) -> SignalSeries:
    return SignalSeries(CAPACITY, tuple(float(total_servers) for _ in range(t_end)))


# 24-hour grid carbon intensity shape (kg CO2/MWh relative to the mean):
# cleaner overnight and midday, dirtier on the morning and evening ramps.
_DAILY_CARBON_SHAPE = (
    0.88, 0.85, 0.83, 0.82, 0.84, 0.90, 1.00, 1.08,
    1.10, 1.05, 0.98, 0.92, 0.90, 0.92, 0.97, 1.04,
    1.12, 1.20, 1.22, 1.18, 1.10, 1.02, 0.96, 0.91,
)


def synthetic_carbon(t_end: int, base: float = 500.0, amplitude: float = 1.0) -> SignalSeries:
    """Deterministic daily-patterned carbon rate series around `base`."""
    values = tuple(
        base * (1.0 + amplitude * (_DAILY_CARBON_SHAPE[t % 24] - 1.0))
        for t in range(t_end)
    )
    return SignalSeries(CARBON, values)


def load_signal_csv(path: str, kind: str) -> SignalSeries:
    """Read an `hour,value` CSV whose hours run 1..n, each once, in any
    order; the values obey the series kind's rules."""
    rows = sorted(read_csv(path, ("hour", "value"), lambda row: (int(row[0]), float(row[1]))))
    if not rows:
        raise DomainError(f"{path}: empty signal file")
    for expected, (hour, _) in enumerate(rows, start=1):
        if hour != expected:
            raise DomainError(
                f"{path}: hours must run 1..{len(rows)} once each; "
                f"expected hour {expected}, found {hour}"
            )
    return SignalSeries(kind, tuple(value for _, value in rows))


def save_signal_csv(series: SignalSeries, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "value"])
        for t, v in enumerate(series.values, start=1):
            writer.writerow([t, int(v) if series.kind == CAPACITY else v])
