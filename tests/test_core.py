import dataclasses
import math
import pickle
import random

import pytest

from dcsched.core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    JobClass,
    ObjectiveWeights,
    SystemState,
    busy_servers,
    check_state,
    committed_servers,
    power_of,
    server_commitments,
)

FLEET_DC = DCConfig(total_servers=20000, p_peak_mw=100.0, p_idle_mw=30.0)


def test_power_at_full_fleet():
    assert power_of(20000, FLEET_DC) == pytest.approx(100.0)


def test_power_at_idle():
    assert power_of(0, FLEET_DC) == pytest.approx(30.0)


def test_power_midpoint():
    assert power_of(10000, FLEET_DC) == pytest.approx(65.0)


def test_power_out_of_range():
    with pytest.raises(DomainError):
        power_of(-1, FLEET_DC)
    with pytest.raises(DomainError):
        power_of(20001, FLEET_DC)


def test_power_is_affine():
    for a, b in [(0, 20000), (100, 300), (5000, 15000)]:
        assert power_of(a, FLEET_DC) + power_of(b, FLEET_DC) == pytest.approx(
            2 * power_of((a + b) // 2, FLEET_DC)
        )


@pytest.mark.parametrize("weights", [(math.nan, 0.0), (0.0, math.inf), (math.nan, math.inf),
                                     (-1.0, 0.0)])
def test_objective_weights_must_be_finite_and_non_negative(weights):
    # a nan or infinite weight would reach HiGHS as a nan objective
    with pytest.raises(DomainError, match="non-negative and finite"):
        ObjectiveWeights(*weights)


def test_job_class_invariants():
    with pytest.raises(DomainError):
        JobClass(0, 1)
    with pytest.raises(DomainError):
        JobClass(1, 0)


def test_job_class_hash_is_the_tuple_hash_and_survives_pickling():
    # the cached hash keeps every dict and set of classes in the order a
    # plain (servers, runtime) hash gives
    for c in (JobClass(1, 1), JobClass(4, 12), JobClass(16, 3)):
        assert hash(c) == hash((c.servers, c.runtime))
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and hash(copy) == hash(c)
        assert repr(c) == f"JobClass(servers={c.servers}, runtime={c.runtime})"
        moved = dataclasses.replace(c, servers=c.servers + 1)
        assert hash(moved) == hash((c.servers + 1, c.runtime)) and moved > c


def test_committed_servers_empty_state():
    state = SystemState(stage=5)
    for t in range(5, 10):
        assert committed_servers(state, t) == 0


def test_committed_servers_single_job():
    r = 5
    c = JobClass(2, 3)
    state = SystemState(stage=r, running={(c, r - 1): 1},
                        arrived={c: 1})
    assert committed_servers(state, r) == 2
    assert committed_servers(state, r + 1) == 2
    assert committed_servers(state, r + 2) == 0


def test_committed_servers_mixed_jobs():
    # two (1,2) jobs begun at r-1 and one (4,4) begun at r-3: all expire after r
    r = 10
    state = SystemState(
        stage=r,
        running={(JobClass(1, 2), r - 1): 2, (JobClass(4, 4), r - 3): 1},
        arrived={JobClass(1, 2): 2, JobClass(4, 4): 1},
    )
    assert committed_servers(state, r) == 6
    assert committed_servers(state, r + 1) == 0


def test_busy_servers_counts_each_hour_a_job_runs():
    # a (2, 3) job started at 4 holds 2 servers at hours 4-6; two (1, 1)
    # jobs started at 6 hold 2 servers at hour 6 only
    entries = {(JobClass(2, 3), 4): 1, (JobClass(1, 1), 6): 2}
    assert busy_servers(entries, range(3, 9)) == {3: 0, 4: 2, 5: 2, 6: 4, 7: 0, 8: 0}
    assert busy_servers(entries, [6]) == {6: 4}
    assert busy_servers({}, range(1, 3)) == {1: 0, 2: 0}


def test_busy_servers_matches_an_hour_by_hour_count():
    # against the loop it replaced, on entries that start before, inside
    # and after the hours asked for, with zero and negative counts
    rng = random.Random(4)
    for _ in range(200):
        entries = {(JobClass(rng.randint(1, 3), rng.randint(1, 5)), rng.randint(-3, 12)):
                   rng.randint(-2, 3) for _ in range(rng.randint(0, 8))}
        hours = sorted(rng.sample(range(-2, 14), rng.randint(0, 6)))
        expected = {t: sum(c.servers * num for (c, t_b), num in entries.items()
                           if t_b <= t < t_b + c.runtime) for t in hours}
        assert busy_servers(entries, hours) == expected


def test_committed_servers_rejects_past_hours():
    with pytest.raises(DomainError):
        committed_servers(SystemState(stage=5), 4)


def test_commitment_vector_matches_direct_sum():
    r = 4
    state = SystemState(
        stage=r,
        running={(JobClass(2, 3), r - 1): 1, (JobClass(1, 4), r - 2): 3},
        arrived={JobClass(2, 3): 1, JobClass(1, 4): 3},
    )
    u = server_commitments(state, max_runtime=4)
    # (2,3)@r-1 has 2 hours left; (1,4)@r-2 has 2 hours left
    assert u == [0, 2 + 3, 0]
    for t in range(r, r + 4):
        assert committed_servers(state, t) == sum(u[t - r:])


def test_check_state_flags_stale_running_entry():
    state = SystemState(stage=5, running={(JobClass(1, 2), 2): 1},
                        arrived={JobClass(1, 2): 1})
    with pytest.raises(DomainError):
        check_state(state, max_runtime=2)


def test_check_state_flags_conservation_breach():
    c = JobClass(1, 1)
    state = SystemState(stage=3, queued={c: 1}, arrived={c: 3})
    with pytest.raises(DomainError):
        check_state(state, max_runtime=1)


def test_arrival_profile_validation():
    c = JobClass(1, 1)
    with pytest.raises(DomainError):
        ArrivalProfile({(0, c): 1}, 4)
    with pytest.raises(DomainError):
        ArrivalProfile({(1, c): -1}, 4)
    profile = ArrivalProfile({(1, c): 2, (3, c): 1}, 4)
    assert profile.at(1) == {c: 2}
    assert profile.at(2) == {}
    assert profile.totals() == {c: 3}
