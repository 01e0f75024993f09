import math
import pickle
import random

import numpy as np
import pytest

from conftest import running_of, state_of
from dcsched.core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    JobClass,
    ObjectiveWeights,
    check_state,
    held_servers,
    power_of,
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
    # a class hashes, compares and orders as the plain (servers, runtime)
    # tuple, which keeps every dict and set of classes in the one order
    for c in (JobClass(1, 1), JobClass(4, 12), JobClass(16, 3)):
        assert hash(c) == hash((c.servers, c.runtime))
        copy = pickle.loads(pickle.dumps(c))
        assert type(copy) is JobClass and copy == c and hash(copy) == hash(c)
        assert repr(c) == f"JobClass(servers={c.servers}, runtime={c.runtime})"
        moved = JobClass(c.servers + 1, c.runtime)
        assert hash(moved) == hash((c.servers + 1, c.runtime)) and moved > c
    # an invalid class is refused when it is made, also by keyword
    with pytest.raises(DomainError, match=r"got JobClass\(servers=2, runtime=0\)"):
        JobClass(servers=2, runtime=0)
    classes = [JobClass(4, 1), JobClass(1, 12), JobClass(2, 3), JobClass(1, 2)]
    assert sorted(classes) == [JobClass(1, 2), JobClass(1, 12), JobClass(2, 3), JobClass(4, 1)]


def committed_servers(state, t):
    """Servers held at hour t by the jobs running at `state.stage`."""
    return int(state.held(t - state.stage + 1)[-1])


def hour_by_hour(running, first, n):
    """Servers held at hours first..first + n - 1 by the (class, start
    hour) -> count entries `running`, counted hour by hour."""
    return [sum(c.servers * num for (c, t_b), num in running.items() if t_b <= t < t_b + c.runtime)
            for t in range(first, first + n)]


def test_committed_servers_empty_state():
    state = state_of(5, [JobClass(2, 3)])
    for t in range(5, 10):
        assert committed_servers(state, t) == 0


def test_committed_servers_single_job():
    r = 5
    c = JobClass(2, 3)
    state = state_of(r, [c], running={(c, r - 1): 1}, arrived={c: 1})
    assert committed_servers(state, r) == 2
    assert committed_servers(state, r + 1) == 2
    assert committed_servers(state, r + 2) == 0


def test_committed_servers_mixed_jobs():
    # two (1,2) jobs begun at r-1 and one (4,4) begun at r-3: all expire after r
    r = 10
    state = state_of(
        r, [JobClass(1, 2), JobClass(4, 4)],
        running={(JobClass(1, 2), r - 1): 2, (JobClass(4, 4), r - 3): 1},
        arrived={JobClass(1, 2): 2, JobClass(4, 4): 1},
    )
    assert committed_servers(state, r) == 6
    assert committed_servers(state, r + 1) == 0


def test_busy_servers_counts_each_hour_a_job_runs():
    # a (2, 3) job started at 4 holds 2 servers at hours 4-6; two (1, 1)
    # jobs started at 6 hold 2 servers at hour 6 only
    rows = np.array([[2, 1], [3, 1], [4, 6], [1, 2]])
    assert held_servers(rows, 3, 6).tolist() == [0, 2, 2, 4, 0, 0]
    assert held_servers(rows, 6, 1).tolist() == [4]
    assert held_servers(np.zeros((4, 0), dtype=int), 1, 2).tolist() == [0, 0]
    # at stage 6, a (2, 4) job started at 4 holds 2 servers at hours 6-7
    # and two (1, 2) jobs started at 5 hold 2 servers at hour 6
    c24, c12 = JobClass(2, 4), JobClass(1, 2)
    state = state_of(6, [c24, c12], running={(c24, 4): 1, (c12, 5): 2})
    assert state.held(4).tolist() == [4, 2, 0, 0]
    assert state.held(1).tolist() == [4]
    assert state_of(6, [c24, c12]).held(2).tolist() == [0, 0]


def test_busy_servers_matches_an_hour_by_hour_count():
    # held_servers against an hour-by-hour loop, on entries that start
    # before, inside and after the hours asked for, with zero and negative
    # counts; and a state's held servers, on random running tables
    rng = random.Random(4)
    for _ in range(200):
        entries = {(JobClass(rng.randint(1, 3), rng.randint(1, 5)), rng.randint(-3, 12)):
                   rng.randint(-2, 3) for _ in range(rng.randint(0, 8))}
        first, n = rng.randint(-2, 13), rng.randint(0, 6)
        rows = np.array([[c.servers, c.runtime, t_b, num] for (c, t_b), num in entries.items()],
                        dtype=int).reshape(-1, 4).T
        assert held_servers(rows, first, n).tolist() == hour_by_hour(entries, first, n)

        classes = sorted({JobClass(rng.randint(1, 3), rng.randint(1, 5))
                          for _ in range(rng.randint(1, 4))})
        r = rng.randint(1, 12)
        running = {(c, r - age): rng.randint(0, 3) for c in classes for age in range(1, c.runtime)
                   if rng.random() < 0.5}
        assert state_of(r, classes, running=running).held(n).tolist() == hour_by_hour(running, r, n)


def test_commitment_vector_matches_direct_sum():
    r = 4
    running = {(JobClass(2, 3), r - 1): 1, (JobClass(1, 4), r - 2): 3}
    state = state_of(r, [JobClass(2, 3), JobClass(1, 4)], running=running,
                     arrived={JobClass(2, 3): 1, JobClass(1, 4): 3})
    # (2,3)@r-1 has 2 hours left; (1,4)@r-2 has 2 hours left
    assert state.held(4).tolist() == [2 + 3, 2 + 3, 0, 0]
    for t in range(r, r + 4):
        assert committed_servers(state, t) == hour_by_hour(running, t, 1)[0]


def test_check_state_flags_stale_running_entry():
    # a (1,2) job started at 3 ends during hour 4: at stage 5 its cell, of
    # age 2, is stale, and so is one of age 3; a (1,4) job of age 3 runs on
    c12, c14 = JobClass(1, 2), JobClass(1, 4)
    for t_b in (3, 2):
        state = state_of(5, [c12, c14], running={(c12, t_b): 1}, arrived={c12: 1})
        with pytest.raises(DomainError, match="stale"):
            check_state(state)
    check_state(state_of(5, [c12, c14], running={(c14, 2): 1}, arrived={c14: 1}))


def test_check_state_flags_conservation_breach():
    c = JobClass(1, 1)
    state = state_of(3, [c], queued={c: 1}, arrived={c: 3})
    with pytest.raises(DomainError):
        check_state(state)


def test_check_state_flags_negative_counts():
    c = JobClass(1, 2)
    for table in ("running", "n_queued", "n_completed", "n_arrived"):
        state = state_of(3, [c])
        getattr(state, table)[0] = -1
        with pytest.raises(DomainError, match=f"negative {table}"):
            check_state(state)


# SystemState.cancel on the running table of stage 4 below, against the
# same rule stated on dict tables: a key names a running entry when its
# class is in the run and its age, 4 - start hour, is in 1..runtime - 1,
# whether the entry holds jobs or not
C11, C22, C23, C14 = JobClass(1, 1), JobClass(2, 2), JobClass(2, 3), JobClass(1, 4)
CANCEL_RUNNING = {(C23, 3): 2, (C23, 2): 1, (C14, 1): 3, (C14, 3): 1}  # (C14, 2) holds 0
CANCEL_QUEUED = {C11: 1, C23: 1}
CANCEL_CASES = [
    pytest.param({(C23, 3): 1, (C23, 2): 1, (C14, 1): 2}, id="several keys"),
    pytest.param({(C14, 1): 3, (C14, 3): 1}, id="whole entries"),
    pytest.param({(C23, 3): 0}, id="zero on a live entry"),
    pytest.param({(C14, 2): 0}, id="zero on an empty entry"),
    pytest.param({(C22, 3): 0}, id="zero for a class not in the run"),
    pytest.param({(C22, 3): 1}, id="one for a class not in the run"),
    pytest.param({(C23, 4): 0}, id="zero started at the stage"),
    pytest.param({(C23, 4): 1}, id="one started at the stage"),
    pytest.param({(C23, 1): 0}, id="zero started a full runtime back"),
    pytest.param({(C23, 1): 1}, id="one started a full runtime back"),
    pytest.param({(C23, 5): 0}, id="zero started after the stage"),
    pytest.param({(C11, 3): 0}, id="zero of a one-hour class"),
    pytest.param({(C23, 3): -1}, id="negative"),
    pytest.param({(C23, 3): 3}, id="above its entry"),
    pytest.param({(C23, 3): 1, (C23, 4): 0}, id="a bad key beside a good one"),
]


def cancel_state():
    return state_of(4, [C11, C23, C14], running=CANCEL_RUNNING, queued=CANCEL_QUEUED,
                    arrived={C11: 1, C23: 4, C14: 4})


def reference_cancel(stage, classes, terminations):
    """The terminations applied to the dict tables of `cancel_state`:
    (running, queued) with their nonzero counts, or None if refused."""
    running, queued = dict(CANCEL_RUNNING), dict(CANCEL_QUEUED)
    for (c, t_b), num in terminations.items():
        if c not in classes or not 1 <= stage - t_b < c.runtime:
            return None
        if not 0 <= num <= running.get((c, t_b), 0):
            return None
        running[(c, t_b)] = running.get((c, t_b), 0) - num
        queued[c] = queued.get(c, 0) + num
    return ({key: num for key, num in running.items() if num},
            {c: num for c, num in queued.items() if num})


@pytest.mark.parametrize("terminations", CANCEL_CASES)
def test_cancel_follows_the_dict_keyed_reference(terminations):
    state = cancel_state()
    expected = reference_cancel(state.stage, state.classes, terminations)
    if expected is None:
        with pytest.raises(DomainError):
            state.cancel(terminations)
    else:
        cancelled = state.cancel(terminations)
        assert (running_of(cancelled), cancelled.queued) == expected
        assert cancelled is not state
        check_state(cancelled)
    assert state == cancel_state()  # the state cancelled from is left as it was


def test_cancel_gives_the_exact_running_table_and_queue():
    cancelled = cancel_state().cancel({(C23, 3): 1, (C23, 2): 1, (C14, 1): 2})
    assert cancelled.running.tolist() == [[0, 0, 0], [1, 0, 0], [1, 0, 1]]
    assert cancelled.n_queued.tolist() == [1, 3, 2]
    assert (cancelled.stage, cancelled.n_completed.tolist(), cancelled.n_arrived.tolist()) == (
        4, [0, 0, 0], [1, 4, 4])


def test_cancel_of_nothing_is_the_state_itself():
    state = cancel_state()
    assert state.cancel({}) is state


def test_arrival_profile_validation():
    c = JobClass(1, 1)
    with pytest.raises(DomainError):
        ArrivalProfile({(0, c): 1}, 4)
    with pytest.raises(DomainError):
        ArrivalProfile({(1, c): -1}, 4)
    profile = ArrivalProfile({(1, c): 2, (3, c): 1}, 4)
    assert profile.table([c]).tolist() == [[2, 0, 1, 0]]
    assert profile.totals() == {c: 3}
    with pytest.raises(DomainError, match="outside declared class set"):
        profile.table([JobClass(2, 1)])


def test_every_exported_name_resolves():
    import dcsched

    for name in dcsched.__all__:
        assert hasattr(dcsched, name), name
