import numpy as np
import pytest

from oracle_offline import TinyInstance, brute_force_goodput, random_instance

from dcsched.core import ArrivalProfile, DomainError, JobClass
from dcsched.offline import OfflineSchedule, build_offline, solve_offline, write_schedule_csv
from dcsched.milp import solve

C11 = JobClass(1, 1)
C22 = JobClass(2, 2)

INSTANCE_A = ArrivalProfile({(1, C11): 2, (1, C22): 1, (3, C11): 1}, 4)


def recount(starts, t_end):
    """Servers busy at each hour 1..t_end, counted hour by hour from
    (class, start hour) -> count starts."""
    return [sum(c.servers * num for (c, t_b), num in starts.items() if t_b <= t < t_b + c.runtime)
            for t in range(1, t_end + 1)]


def test_instance_a_goodput():
    schedule = solve_offline(INSTANCE_A, [4, 4, 4, 4], [C11, C22])
    assert schedule.goodput == 7


def test_instance_a_matches_oracle():
    inst = TinyInstance(((1, 1, 1), (1, 1, 1), (2, 2, 1), (1, 1, 3)), (4,) * 4, 4)
    assert brute_force_goodput(inst) == 7


def test_zero_arrivals():
    profile = ArrivalProfile({}, 4)
    schedule = solve_offline(profile, [4] * 4, [C11])
    assert schedule.goodput == 0
    assert schedule.starts == {}


def test_job_never_fits():
    profile = ArrivalProfile({(1, C22): 1}, 4)
    schedule = solve_offline(profile, [1] * 4, [C22])
    assert schedule.goodput == 0


def test_undeclared_class_rejected():
    with pytest.raises(DomainError, match="outside declared class set"):
        build_offline(INSTANCE_A, [4] * 4, [C11])


def test_active_of_a_single_start():
    # the (3, 2) job may start at hour 2 or 3 and must finish by hour 4;
    # hour 4 holds only 2 servers, so hour 2 is the one optimum
    c32 = JobClass(3, 2)
    schedule = solve_offline(ArrivalProfile({(2, c32): 1}, 4), [4, 4, 4, 2], [c32],
                             require_completion=True)
    assert schedule.starts == {(c32, 2): 1}
    assert schedule.active == [0, 3, 3, 0]


def test_active_of_an_empty_schedule():
    assert solve_offline(ArrivalProfile({}, 4), [4] * 4, [C11]).active == [0, 0, 0, 0]


def test_active_is_an_hour_by_hour_recount_of_the_starts():
    # the model's occupancy rows at the solution, against the schedule's
    # own starts; without the completion rule a start may run past the end
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_instance(rng)
        for require_completion in (False, True):
            schedule = solve_offline(inst.profile(), list(inst.capacity), inst.classes(),
                                     require_completion=require_completion)
            assert schedule.active == recount(schedule.starts, inst.t_end)
            assert all(type(m) is int for m in schedule.active)


def test_active_trajectory_respects_capacity_on_instance_a():
    schedule = solve_offline(INSTANCE_A, [4, 4, 4, 4], [C11, C22])
    assert all(m <= 4 for m in schedule.active)
    assert sum(schedule.active) == 7  # all starts complete within the horizon here


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(10):
        inst = random_instance(rng)
        schedule = solve_offline(inst.profile(), list(inst.capacity), inst.classes())
        assert schedule.goodput == brute_force_goodput(inst)


def test_capacity_doubling_never_hurts():
    rng = np.random.default_rng(11)
    for _ in range(8):
        inst = random_instance(rng)
        base = solve_offline(inst.profile(), list(inst.capacity), inst.classes())
        doubled = solve_offline(
            inst.profile(), [2 * c for c in inst.capacity], inst.classes()
        )
        assert doubled.goodput >= base.goodput


def test_solution_satisfies_model_constraints():
    model, handles = build_offline(INSTANCE_A, [4, 4, 4, 4], [C11, C22])
    res = solve(model)
    assert res.status == "optimal"
    # capacity never exceeded by the implied trajectory
    starts = {key: int(res.values[v]) for key, v in handles.items() if res.values[v]}
    assert all(m <= 4 for m in recount(starts, 4))


def test_schedule_csv(tmp_path):
    schedule = solve_offline(INSTANCE_A, [4, 4, 4, 4], [C11, C22])
    path = tmp_path / "schedule.csv"
    write_schedule_csv(schedule, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,k,l,n"
    assert len(lines) > 1


def test_schedule_csv_bytes(tmp_path):
    # rows by start hour, then by class
    schedule = OfflineSchedule({(C22, 3): 1, (C11, 1): 2}, 6, [2, 0, 2, 2])
    path = tmp_path / "schedule.csv"
    write_schedule_csv(schedule, str(path))
    assert path.read_bytes() == b"t,k,l,n\r\n1,1,1,2\r\n3,2,2,1\r\n"
