import pytest

from dcsched.core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    JobClass,
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


def test_job_class_invariants():
    with pytest.raises(DomainError):
        JobClass(0, 1)
    with pytest.raises(DomainError):
        JobClass(1, 0)


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
