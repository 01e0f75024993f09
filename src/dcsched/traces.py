"""Raw job-trace ingestion: bucketing into job classes and synthesizing
arrival-time profiles (uniform / small_var / large_var)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ArrivalProfile, DomainError, JobClass, read_csv

SHAPES = ("uniform", "small_var", "large_var")
_AMPLITUDE = {"uniform": 0.0, "small_var": 0.3, "large_var": 0.8}


@dataclass(frozen=True)
class RawJob:
    job_id: str
    servers: int
    runtime_hours: float

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise DomainError(f"job {self.job_id}: servers must be >= 1")
        if self.runtime_hours <= 0:
            raise DomainError(f"job {self.job_id}: runtime must be positive")


@dataclass(frozen=True)
class AggregationRule:
    """Server counts bucket up to the next declared size; runtimes round up
    to whole hours; jobs longer than max_runtime_hours are dropped."""

    k_buckets: tuple[int, ...] = (1, 2, 4, 8, 16)
    max_runtime_hours: int = 24

    def __post_init__(self) -> None:
        if not self.k_buckets or list(self.k_buckets) != sorted(set(self.k_buckets)):
            raise DomainError("k_buckets must be non-empty, sorted, unique")
        if self.max_runtime_hours < 1:
            raise DomainError("max_runtime_hours must be >= 1")


@dataclass
class GroupReport:
    class_totals: dict[JobClass, int]
    dropped_long: int
    dropped_oversize: int


def group_jobs(jobs: Iterable[RawJob], rule: AggregationRule) -> GroupReport:
    """Map each job to (smallest bucket >= servers, ceil(runtime)); report
    drops for over-long and over-wide jobs instead of silently bucketing."""
    totals: dict[JobClass, int] = {}
    dropped_long = dropped_oversize = 0
    for job in jobs:
        runtime = math.ceil(job.runtime_hours)
        if runtime > rule.max_runtime_hours:
            dropped_long += 1
            continue
        bucket = next((b for b in rule.k_buckets if b >= job.servers), None)
        if bucket is None:
            dropped_oversize += 1
            continue
        c = JobClass(bucket, runtime)
        totals[c] = totals.get(c, 0) + 1
    return GroupReport(totals, dropped_long, dropped_oversize)


def hour_weights(shape: str, t_end: int) -> np.ndarray:
    """Normalized arrival density over hours 1..t_end: uniform or a
    24-hour sinusoid with the shape's amplitude."""
    if shape not in SHAPES:
        raise DomainError(f"unknown profile shape {shape!r}; choose from {SHAPES}")
    a = _AMPLITUDE[shape]
    hours = np.arange(t_end)
    w = 1.0 + a * np.sin(2.0 * np.pi * (hours % 24) / 24.0)
    return w / w.sum()


def sample_arrivals(
    class_totals: dict[JobClass, int],
    shape: str,
    t_end: int,
    seed: int,
) -> ArrivalProfile:
    """Assign each job an arrival hour drawn from the shape's density."""
    if t_end < 24:
        raise DomainError("horizon must cover at least one day (24 hours)")
    weights = hour_weights(shape, t_end)
    rng = np.random.default_rng(seed)
    counts: dict[tuple[int, JobClass], int] = {}
    for c in sorted(class_totals):
        total = class_totals[c]
        if total < 0:
            raise DomainError(f"negative job total for {c}")
        if total == 0:
            continue
        per_hour = rng.multinomial(total, weights)
        for t, num in enumerate(per_hour, start=1):
            if num:
                counts[(t, c)] = int(num)
    return ArrivalProfile(counts, t_end)


def synthetic_jobs(
    n_jobs: int,
    k_buckets: Sequence[int] = (1, 2, 4, 8, 16),
    max_runtime_hours: int = 24,
    seed: int = 0,
) -> dict[JobClass, int]:
    """Synthetic class totals standing in for a real trace: small jobs are
    common, big/long jobs rare (geometric-ish tails on both axes)."""
    AggregationRule(tuple(k_buckets), max_runtime_hours)  # a trace's bucket and runtime rules
    rng = np.random.default_rng(seed)
    k_weights = np.array([2.0 ** -i for i in range(len(k_buckets))])
    k_weights /= k_weights.sum()
    l_weights = np.array([1.0 / (1 + 0.25 * i) for i in range(max_runtime_hours)])
    l_weights /= l_weights.sum()
    totals: dict[JobClass, int] = {}
    ks = rng.choice(len(k_buckets), size=n_jobs, p=k_weights)
    ls = rng.choice(max_runtime_hours, size=n_jobs, p=l_weights)
    for ki, li in zip(ks, ls):
        c = JobClass(int(k_buckets[ki]), int(li) + 1)
        totals[c] = totals.get(c, 0) + 1
    return totals


def load_trace_csv(path: str) -> list[RawJob]:
    """Read a `job_id,servers,runtime_hours` CSV with a header row."""
    return read_csv(
        path, ("job_id", "servers", "runtime_hours"),
        lambda row: RawJob(row[0], int(row[1]), float(row[2])),
    )


def write_profile_csv(profile: ArrivalProfile, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "k", "l", "count"])
        for (t, c), num in sorted(profile.counts.items()):
            writer.writerow([t, c.servers, c.runtime, num])


def load_profile_csv(path: str) -> ArrivalProfile:
    """Read an `hour,k,l,count` CSV; the horizon is its last hour."""
    counts: dict[tuple[int, JobClass], int] = {}
    rows = read_csv(
        path, ("hour", "k", "l", "count"),
        lambda row: ((int(row[0]), JobClass(int(row[1]), int(row[2]))), int(row[3])),
    )
    for key, num in rows:
        counts[key] = counts.get(key, 0) + num
    return ArrivalProfile(counts, max((t for t, _ in counts), default=0))
