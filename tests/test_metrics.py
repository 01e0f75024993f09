from pathlib import Path

import pytest

from dcsched.core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
)
from dcsched.engine import HourRecord, Trajectory, run
from dcsched.metrics import (
    goodput,
    peak_power,
    summary_row,
    total_emissions,
    volatility,
    write_summary_csv,
    SUMMARY_COLUMNS,
)
from dcsched.signals import SignalSeries, constant_capacity

from conftest import state_of

CFG = DCConfig(total_servers=20000, p_peak_mw=100.0, p_idle_mw=30.0)
C11 = JobClass(1, 1)
C23 = JobClass(2, 3)


def record(hour, active, capacity=20000, carbon=500.0, wasted=0, terms=None,
           slack=None):
    return HourRecord(
        hour=hour, active=active, capacity=capacity, carbon=carbon,
        starts={}, terminations=terms or {}, queued_after=0,
        committed_before=0, objective=0.0, gap=0.0, status="optimal",
        slack=slack or {}, wasted_server_hours=wasted,
    )


def test_idle_facility_emissions():
    # 10 idle hours at 30 MW and 500 kg/MWh emit 150000 kg
    traj = Trajectory(records=[record(t, 0) for t in range(1, 11)])
    carbon = SignalSeries("carbon", (500.0,) * 10)
    assert total_emissions(traj, carbon, CFG) == pytest.approx(150_000.0)


def test_two_hour_emissions_hand_computed():
    # hour 1: full fleet -> 100 MW at 400 kg/MWh; hour 2: idle -> 30 MW at
    # 800 kg/MWh; total 40000 + 24000 = 64000 kg
    traj = Trajectory(records=[record(1, 20000), record(2, 0)])
    carbon = SignalSeries("carbon", (400.0, 800.0))
    assert total_emissions(traj, carbon, CFG) == pytest.approx(64_000.0)


def test_emissions_use_true_series_length_check():
    traj = Trajectory(records=[record(1, 0), record(2, 0)])
    with pytest.raises(DomainError):
        total_emissions(traj, SignalSeries("carbon", (500.0,)), CFG)


def test_volatility_of_two_point_series():
    assert volatility([2.0, 8.0], window=2) == pytest.approx(3.0)
    assert volatility([5.0, 5.0, 5.0], window=3) == 0.0


def test_volatility_uses_leading_window_only():
    series = [0.0, 10.0] + [1000.0] * 10
    assert volatility(series, window=2) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        volatility([1.0], window=2)
    with pytest.raises(DomainError):
        volatility([1.0], window=0)


def test_peak_power_is_max_over_hours():
    traj = Trajectory(records=[record(1, 0), record(2, 10000), record(3, 500)])
    assert peak_power(traj, CFG) == pytest.approx(65.0)


def test_goodput_counts_completed_and_wasted():
    cfg = DCConfig(total_servers=4, p_peak_mw=10.0, p_idle_mw=2.0)
    # a (2,3) job runs hours 1-2 then is terminated: 4 wasted server-hours
    profile = ArrivalProfile({(1, C23): 1, (1, C11): 1}, 4)
    cap = SignalSeries("capacity", (4.0, 4.0, 1.0, 1.0))
    traj = run(
        cfg, profile, (C11, C23), cap, SignalSeries("carbon", (100.0,) * 4),
        HorizonConfig(2, 2, 2), ObjectiveWeights(),
        capacity_forecast=constant_capacity(4, 4),
    )
    report = goodput(traj, cap)
    assert report.completed_server_hours == 1
    assert report.wasted_server_hours == 4
    assert report.ratio == pytest.approx(1 / 10)


def test_summary_csv_round_trip(tmp_path):
    traj = Trajectory(records=[record(t, t * 10) for t in range(1, 5)],
                      final_state=state_of(5, ()))
    carbon = SignalSeries("carbon", (500.0,) * 4)
    capacity = constant_capacity(20000, 4)
    label = {
        "profile": "uniform", "lambda_ce": 0, "lambda_pd": 0,
        "horizon_t": 24, "forecast": "accurate", "seed": 1,
    }
    row = summary_row(traj, carbon, capacity, CFG, label)
    assert set(row) == set(SUMMARY_COLUMNS)
    path = str(tmp_path / "summary.csv")
    write_summary_csv([row], path)
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 2


def test_summary_csv_bytes(tmp_path):
    # the rows' keys in any order; the file's columns in SUMMARY_COLUMNS's
    rows = [dict(reversed([(key, f"{key[:3]}{i}") for key in SUMMARY_COLUMNS]))
            for i in (1, 2)]
    rows[1]["seed"] = 7
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, str(path))
    assert path.read_bytes() == (
        b"profile,lambda_ce,lambda_pd,horizon_t,forecast,seed,co2_kg,volatility,peak_mw,"
        b"goodput_server_hours,goodput_ratio,terminations,wasted_server_hours,slack_events\r\n"
        b"pro1,lam1,lam1,hor1,for1,see1,co21,vol1,pea1,goo1,goo1,ter1,was1,sla1\r\n"
        b"pro2,lam2,lam2,hor2,for2,7,co22,vol2,pea2,goo2,goo2,ter2,was2,sla2\r\n")
