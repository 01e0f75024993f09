import math

import numpy as np
import pytest

from dcsched.core import ArrivalProfile, DomainError, JobClass
from dcsched.traces import (
    AggregationRule,
    GroupReport,
    RawJob,
    group_jobs,
    hour_weights,
    load_profile_csv,
    load_trace_csv,
    sample_arrivals,
    synthetic_jobs,
    write_profile_csv,
)

RULE = AggregationRule()


def test_bucketing_rounds_both_axes_up():
    report = group_jobs([RawJob("a", 3, 1.2)], RULE)
    assert report.class_totals == {JobClass(4, 2): 1}
    report = group_jobs([RawJob("b", 1, 1.0)], RULE)
    assert report.class_totals == {JobClass(1, 1): 1}
    report = group_jobs([RawJob("c", 16, 23.01)], RULE)
    assert report.class_totals == {JobClass(16, 24): 1}


def test_overlong_and_oversize_jobs_are_dropped_with_counts():
    jobs = [RawJob("a", 1, 25.0), RawJob("b", 17, 1.0), RawJob("c", 2, 2.0)]
    report = group_jobs(jobs, RULE)
    assert report.dropped_long == 1
    assert report.dropped_oversize == 1
    assert sum(report.class_totals.values()) == 1
    assert report.class_totals == {JobClass(2, 2): 1}


def test_grouping_conserves_job_count():
    rng = np.random.default_rng(0)
    jobs = [
        RawJob(str(i), int(rng.integers(1, 20)), float(rng.uniform(0.1, 30)))
        for i in range(500)
    ]
    report = group_jobs(jobs, RULE)
    assert sum(report.class_totals.values()) + report.dropped_long + report.dropped_oversize == 500


def reference_group_jobs(jobs, rule):
    """group_jobs as a per-job loop: the counter must agree with it."""
    totals = {}
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
    return totals, dropped_long, dropped_oversize


def reference_synthetic_jobs(n_jobs, k_buckets, max_runtime_hours, seed):
    """synthetic_jobs as a per-job loop over the same draws."""
    rng = np.random.default_rng(seed)
    k_weights = np.array([2.0 ** -i for i in range(len(k_buckets))])
    k_weights /= k_weights.sum()
    l_weights = np.array([1.0 / (1 + 0.25 * i) for i in range(max_runtime_hours)])
    l_weights /= l_weights.sum()
    totals = {}
    ks = rng.choice(len(k_buckets), size=n_jobs, p=k_weights)
    ls = rng.choice(max_runtime_hours, size=n_jobs, p=l_weights)
    for ki, li in zip(ks, ls):
        c = JobClass(int(k_buckets[ki]), int(li) + 1)
        totals[c] = totals.get(c, 0) + 1
    return totals


def assert_plain_counts(totals):
    # Python ints throughout, as the per-job loop gave them
    for c, n in totals.items():
        assert (type(c.servers), type(c.runtime), type(n)) == (int, int, int)


@pytest.mark.parametrize("seed", range(5))
def test_group_jobs_counts_as_the_per_job_loop(seed):
    rng = np.random.default_rng(seed)
    rule = AggregationRule((1, 2, 4, 8, 16), 12)
    jobs = [RawJob(str(i), int(rng.integers(1, 24)), float(rng.uniform(0.01, 16)))
            for i in range(int(rng.integers(0, 2000)))]
    # the edges: a runtime of exactly max_runtime_hours, a whole hour, an
    # hour just past it, the widest bucket, one server more, and a job far
    # too wide for an int64
    jobs += [RawJob("at", 1, 12.0), RawJob("whole", 16, 3.0), RawJob("past", 2, 12.000001),
             RawJob("widest", 16, 0.5), RawJob("wider", 17, 0.5), RawJob("huge", 10**30, 1.0),
             RawJob("huge-long", 10**30, 99.0)]
    report = group_jobs(iter(jobs), rule)
    expected = reference_group_jobs(jobs, rule)
    assert (report.class_totals, report.dropped_long, report.dropped_oversize) == expected
    assert_plain_counts(report.class_totals)
    assert type(report.dropped_long) is type(report.dropped_oversize) is int


def test_group_jobs_of_no_jobs_and_of_one_too_wide():
    assert group_jobs([], RULE) == GroupReport({}, 0, 0)
    assert group_jobs([RawJob("huge", 10**30, 1.0)], RULE) == GroupReport({}, 0, 1)
    assert group_jobs([RawJob("at", 1, 24.0)], RULE) == GroupReport({JobClass(1, 24): 1}, 0, 0)
    # buckets and jobs past int64 as well
    rule = AggregationRule((1, 10**30), 24)
    assert group_jobs([RawJob("a", 10**20, 1.0), RawJob("b", 10**31, 1.0)], rule) == GroupReport(
        {JobClass(10**30, 1): 1}, 0, 1)


@pytest.mark.parametrize("n_jobs, k_buckets, max_runtime_hours, seed", [
    (0, (1, 2, 4, 8, 16), 24, 0),
    (1, (1,), 1, 3),
    (300, (1, 2, 4), 8, 1),
    (2000, (1, 2, 4, 8, 16), 24, 0),
    (48000, (1, 2, 4, 8, 16), 12, 0),
    (5000, (3, 5, 7), 40, 11),
])
def test_synthetic_jobs_counts_as_the_per_job_loop(n_jobs, k_buckets, max_runtime_hours, seed):
    totals = synthetic_jobs(n_jobs, k_buckets, max_runtime_hours, seed)
    assert totals == reference_synthetic_jobs(n_jobs, k_buckets, max_runtime_hours, seed)
    assert sum(totals.values()) == n_jobs
    assert_plain_counts(totals)


def test_a_job_needs_a_positive_finite_runtime():
    for runtime in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="runtime must be positive and finite"):
            RawJob("j", 1, runtime)


def test_rule_rejects_unsorted_buckets():
    with pytest.raises(DomainError):
        AggregationRule(k_buckets=(2, 1))
    with pytest.raises(DomainError):
        AggregationRule(k_buckets=())


def test_rule_and_synthetic_jobs_reject_runtimes_below_one_hour():
    with pytest.raises(DomainError, match="max_runtime_hours"):
        AggregationRule(max_runtime_hours=0)
    with pytest.raises(DomainError, match="max_runtime_hours"):
        synthetic_jobs(10, max_runtime_hours=0)
    with pytest.raises(DomainError, match="k_buckets"):
        synthetic_jobs(10, k_buckets=(2, 1))


def test_uniform_weights_are_flat_and_normalized():
    w = hour_weights("uniform", 48)
    assert np.allclose(w, 1.0 / 48)
    assert w.sum() == pytest.approx(1.0)


def test_large_var_peak_to_trough_ratio():
    # amplitude 0.8 gives density 1.8 at the peak vs 0.2 at the trough
    w = hour_weights("large_var", 24)
    assert w.max() / w.min() == pytest.approx(9.0, rel=1e-6)


def test_unknown_shape_rejected():
    with pytest.raises(DomainError):
        hour_weights("bimodal", 24)


def test_sample_arrivals_conserves_totals():
    totals = synthetic_jobs(1000, seed=3)
    profile = sample_arrivals(totals, "small_var", 72, seed=3)
    assert profile.totals() == {c: n for c, n in totals.items() if n}
    assert profile.horizon == 72


def test_sample_arrivals_matches_density():
    # with many draws the realized hourly histogram concentrates near the
    # sampling density (binomial concentration, ~4 sigma slack)
    totals = {JobClass(1, 1): 120_000}
    profile = sample_arrivals(totals, "large_var", 24, seed=1)
    w = hour_weights("large_var", 24)
    hourly = profile.table([JobClass(1, 1)])[0]
    for t in range(1, 25):
        n = hourly[t - 1]
        expected = 120_000 * w[t - 1]
        sigma = np.sqrt(120_000 * w[t - 1] * (1 - w[t - 1]))
        assert abs(n - expected) < 4 * sigma + 1


def test_sample_arrivals_needs_a_full_day():
    with pytest.raises(DomainError):
        sample_arrivals({JobClass(1, 1): 5}, "uniform", 12, seed=0)


def test_sample_arrivals_deterministic_in_seed():
    totals = synthetic_jobs(200, seed=9)
    a = sample_arrivals(totals, "uniform", 48, seed=5)
    b = sample_arrivals(totals, "uniform", 48, seed=5)
    assert a.counts == b.counts


def test_synthetic_jobs_favor_small_short():
    totals = synthetic_jobs(20_000, seed=2)
    assert sum(totals.values()) == 20_000
    by_k: dict[int, int] = {}
    for c, n in totals.items():
        by_k[c.servers] = by_k.get(c.servers, 0) + n
    assert by_k[1] > by_k[2] > by_k[4] > by_k[8] > by_k[16]


def test_trace_csv_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("job_id,servers,runtime_hours\nj1,3,1.2\nj2,1,0.4\n")
    jobs = load_trace_csv(str(path))
    assert jobs == [RawJob("j1", 3, 1.2), RawJob("j2", 1, 0.4)]

    bad = tmp_path / "bad.csv"
    bad.write_text("id,cpus,hours\nj1,3,1.2\n")
    with pytest.raises(DomainError):
        load_trace_csv(str(bad))
    bad.write_text("job_id,servers,runtime_hours\nj1,three,1.2\n")
    with pytest.raises(DomainError):
        load_trace_csv(str(bad))


def test_trace_csv_rejects_non_finite_runtimes(tmp_path):
    path = tmp_path / "trace.csv"
    for cell in ("nan", "inf"):
        path.write_text(f"job_id,servers,runtime_hours\nj1,3,1.2\nj2,1,{cell}\n")
        with pytest.raises(DomainError, match=r"trace\.csv:3: bad row .*non-finite"):
            load_trace_csv(str(path))


def test_profile_csv_rejects_non_finite_cells(tmp_path):
    path = tmp_path / "profile.csv"
    for cell in ("nan", "inf"):
        path.write_text(f"hour,k,l,count\n1,1,1,{cell}\n")
        with pytest.raises(DomainError, match=r"profile\.csv:2: bad row .*non-finite"):
            load_profile_csv(str(path))


def test_profile_csv_round_trip(tmp_path):
    totals = synthetic_jobs(300, seed=4)
    profile = sample_arrivals(totals, "uniform", 48, seed=4)
    path = str(tmp_path / "profile.csv")
    write_profile_csv(profile, path)
    loaded = load_profile_csv(path)
    assert loaded.counts == profile.counts


def test_profile_csv_bytes(tmp_path):
    # rows by hour, then by class
    path = tmp_path / "profile.csv"
    write_profile_csv(ArrivalProfile({(3, JobClass(1, 2)): 4, (1, JobClass(2, 1)): 1}, 3),
                      str(path))
    assert path.read_bytes() == b"hour,k,l,count\r\n1,2,1,1\r\n3,1,2,4\r\n"
