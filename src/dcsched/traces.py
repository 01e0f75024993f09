"""Raw job-trace ingestion: bucketing into job classes and synthesizing
arrival-time profiles (uniform / small_var / large_var)."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ArrivalProfile, DomainError, JobClass, read_csv, write_csv

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
        if not 0 < self.runtime_hours < math.inf:
            raise DomainError(f"job {self.job_id}: runtime must be positive and finite")


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
    jobs = list(jobs)
    # bisect on Python ints: a server count may not fit an int64
    bucket = np.array([bisect_left(rule.k_buckets, job.servers) for job in jobs], dtype=np.int64)
    runtime = np.ceil(np.array([job.runtime_hours for job in jobs], dtype=float))
    long = runtime > rule.max_runtime_hours
    wide = ~long & (bucket == len(rule.k_buckets))
    kept = ~(long | wide)
    totals = _count_classes(rule.k_buckets, rule.max_runtime_hours, bucket[kept],
                            runtime[kept].astype(np.int64) - 1)
    return GroupReport(totals, int(np.count_nonzero(long)), int(np.count_nonzero(wide)))


def _count_classes(k_buckets: Sequence[int], max_runtime_hours: int, bucket: np.ndarray,
                   hour: np.ndarray) -> dict[JobClass, int]:
    """Jobs per class of jobs in bucket k_buckets[bucket] that run hour + 1
    hours, counted with one integer key per job; the classes come sorted."""
    counts = np.bincount(bucket * max_runtime_hours + hour).tolist()
    return {JobClass(int(k_buckets[key // max_runtime_hours]), key % max_runtime_hours + 1): n
            for key, n in enumerate(counts) if n}


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
    ks = rng.choice(len(k_buckets), size=n_jobs, p=k_weights)
    ls = rng.choice(max_runtime_hours, size=n_jobs, p=l_weights)
    return _count_classes(k_buckets, max_runtime_hours, ks, ls)


def load_trace_csv(path: str) -> list[RawJob]:
    """Read a `job_id,servers,runtime_hours` CSV with a header row."""
    return read_csv(
        path, ("job_id", "servers", "runtime_hours"),
        lambda row: RawJob(row[0], int(row[1]), float(row[2])),
    )


def write_profile_csv(profile: ArrivalProfile, path: str) -> None:
    write_csv(path, ["hour", "k", "l", "count"],
              ([t, c.servers, c.runtime, num] for (t, c), num in sorted(profile.counts.items())))


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
