"""Post-processing of trajectories: emissions, volatility, peak power,
goodput, and the CSV result tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import DCConfig, DomainError, power_of, write_csv
from .engine import Trajectory, goodput_components
from .signals import SignalSeries

VOLATILITY_WINDOW = 144  # hours used for the trajectory stddev


def total_emissions(traj: Trajectory, carbon: SignalSeries, cfg: DCConfig) -> float:
    """Realized emissions in kg CO2: true carbon rate times facility power,
    hour by hour, regardless of the forecast that drove the decisions."""
    carbon.require_hours(len(traj.records))
    return sum(
        carbon.at(rec.hour) * power_of(rec.active, cfg) for rec in traj.records
    )


def volatility(m: Sequence[float], window: int = VOLATILITY_WINDOW) -> float:
    """Population standard deviation of the first `window` hours."""
    if window <= 0:
        raise DomainError("volatility window must be positive")
    if window > len(m):
        raise DomainError(f"window {window} exceeds series length {len(m)}")
    head = list(m[:window])
    mean = sum(head) / window
    return math.sqrt(sum((x - mean) ** 2 for x in head) / window)


def peak_power(traj: Trajectory, cfg: DCConfig) -> float:
    """True horizon-wide peak power (MW), not the per-stage epigraph value."""
    return max(power_of(rec.active, cfg) for rec in traj.records)


@dataclass
class GoodputReport:
    completed_server_hours: int
    wasted_server_hours: int
    ratio: float


def goodput(traj: Trajectory, capacity: SignalSeries) -> GoodputReport:
    """Completed server-hours, server-hours burned by later-terminated
    runs, and the ratio of completed work to total capacity."""
    completed, wasted = goodput_components(traj)
    available = sum(capacity.at(rec.hour) for rec in traj.records)
    ratio = completed / available if available else 0.0
    return GoodputReport(completed, wasted, ratio)


SUMMARY_COLUMNS = [
    "profile", "lambda_ce", "lambda_pd", "horizon_t", "forecast", "seed",
    "co2_kg", "volatility", "peak_mw", "goodput_server_hours",
    "goodput_ratio", "terminations", "wasted_server_hours", "slack_events",
]


def summary_row(
    traj: Trajectory,
    carbon: SignalSeries,
    capacity: SignalSeries,
    cfg: DCConfig,
    label: dict,
) -> dict:
    window = min(VOLATILITY_WINDOW, len(traj.records))
    gp = goodput(traj, capacity)
    row = dict(label)
    row.update(
        co2_kg=f"{total_emissions(traj, carbon, cfg):.6g}",
        volatility=f"{volatility(traj.active_series(), window):.6g}",
        peak_mw=f"{peak_power(traj, cfg):.6g}",
        goodput_server_hours=gp.completed_server_hours,
        goodput_ratio=f"{gp.ratio:.6g}",
        terminations=traj.total_terminations(),
        wasted_server_hours=gp.wasted_server_hours,
        slack_events=traj.slack_events(),
    )
    return row


def write_summary_csv(rows: list[dict], path: str) -> None:
    write_csv(path, SUMMARY_COLUMNS, ([row[key] for key in SUMMARY_COLUMNS] for row in rows))
