import math

import numpy as np
import pytest

from dcsched.core import DomainError
from dcsched.signals import (
    SignalSeries,
    capacity_walk,
    constant_capacity,
    load_signal_csv,
    noisy_forecast,
    save_signal_csv,
    synthetic_carbon,
)


def test_series_at_holds_last_value():
    s = SignalSeries("carbon", (1.0, 2.0, 3.0))
    assert s.at(1) == 1.0
    assert s.at(3) == 3.0
    assert s.at(50) == 3.0
    with pytest.raises(DomainError):
        s.at(0)


def test_series_rejects_negative_and_fractional_capacity():
    with pytest.raises(DomainError):
        SignalSeries("carbon", (1.0, -2.0))
    with pytest.raises(DomainError):
        SignalSeries("capacity", (1.5,))
    with pytest.raises(DomainError):
        SignalSeries("price", (1.0,))


@pytest.mark.parametrize("kind", ["carbon", "capacity"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_series_rejects_non_finite_values(kind, value):
    # a nan or infinite value would reach HiGHS as a nan objective or bound
    with pytest.raises(DomainError, match="at hour 2 is negative or not finite"):
        SignalSeries(kind, (1.0, value))


def test_zero_sigma_forecast_is_identity():
    truth = synthetic_carbon(48)
    fc = noisy_forecast(truth, 0.0, seed=3)
    assert fc.values == truth.values


def test_noisy_forecast_is_unbiased_with_stated_spread():
    # many independent one-hour forecasts of a constant signal: the sample
    # mean must sit at the truth and the sample stddev at sigma
    truth = SignalSeries("carbon", tuple(100.0 for _ in range(100_000)))
    fc = noisy_forecast(truth, 0.11, seed=5)
    draws = np.asarray(fc.values)
    assert abs(draws.mean() - 100.0) < 0.2
    assert abs(draws.std() - 11.0) < 0.2


def test_capacity_forecast_is_integer_and_clamped():
    truth = constant_capacity(100, 1000)
    fc = noisy_forecast(truth, 0.2, seed=9, total_servers=100)
    for v in fc.values:
        assert v == int(v)
        assert 0 <= v <= 100


def test_forecast_rejects_negative_sigma():
    with pytest.raises(DomainError):
        noisy_forecast(synthetic_carbon(4), -0.1, seed=0)


def test_capacity_walk_bounds_and_start():
    s = capacity_walk(200, 500, step_stddev=0.05, floor=0.5, seed=1)
    assert len(s) == 500
    assert s.values[0] == 200
    for v in s.values:
        assert 100 <= v <= 200
        assert v == int(v)


def test_capacity_walk_rejects_bad_step_and_floor():
    with pytest.raises(DomainError, match="step_stddev"):
        capacity_walk(200, 1, step_stddev=-0.1)
    with pytest.raises(DomainError, match="floor"):
        capacity_walk(200, 1, floor=1.5)


def test_capacity_walk_is_persistent():
    # a random walk has strong lag-1 autocorrelation, unlike white noise
    s = capacity_walk(10_000, 2000, step_stddev=0.02, floor=0.0, seed=4)
    x = np.asarray(s.values)
    corr = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert corr > 0.9


def test_capacity_walk_deterministic_in_seed():
    a = capacity_walk(200, 100, seed=7)
    b = capacity_walk(200, 100, seed=7)
    assert a.values == b.values
    assert a.values != capacity_walk(200, 100, seed=8).values


def test_synthetic_carbon_daily_period_and_mean():
    s = synthetic_carbon(240, base=500.0)
    x = np.asarray(s.values)
    assert np.allclose(x[:24], x[24:48])
    assert abs(x.mean() - 500.0) < 25.0
    flat = synthetic_carbon(24, base=500.0, amplitude=0.0)
    assert all(v == 500.0 for v in flat.values)


def test_signal_csv_round_trip(tmp_path):
    path = str(tmp_path / "carbon.csv")
    s = synthetic_carbon(48)
    save_signal_csv(s, path)
    loaded = load_signal_csv(path, "carbon")
    assert loaded.values == s.values

    cpath = str(tmp_path / "cap.csv")
    c = capacity_walk(50, 24, seed=2)
    save_signal_csv(c, cpath)
    assert load_signal_csv(cpath, "capacity").values == c.values


def test_signal_csv_bytes(tmp_path):
    # carbon values as Python writes floats, capacities as whole numbers
    path = tmp_path / "signal.csv"
    save_signal_csv(SignalSeries("carbon", (500.0, 0.1 + 0.2)), str(path))
    assert path.read_bytes() == b"hour,value\r\n1,500.0\r\n2,0.30000000000000004\r\n"
    save_signal_csv(SignalSeries("capacity", (50.0, 7.0)), str(path))
    assert path.read_bytes() == b"hour,value\r\n1,50\r\n2,7\r\n"


def test_signal_csv_rejects_bad_files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    with pytest.raises(DomainError):
        load_signal_csv(write("h.csv", "time,value\n1,2\n"), "carbon")
    with pytest.raises(DomainError):
        load_signal_csv(write("d.csv", "hour,value\n1,2\n1,3\n"), "carbon")
    with pytest.raises(DomainError):
        load_signal_csv(write("g.csv", "hour,value\n1,2\n3,4\n"), "carbon")
    with pytest.raises(DomainError):
        load_signal_csv(write("n.csv", "hour,value\n1,-2\n"), "carbon")
    with pytest.raises(DomainError):
        load_signal_csv(write("e.csv", "hour,value\n"), "carbon")
    with pytest.raises(DomainError):
        load_signal_csv(write("b.csv", "hour,value\n1,abc\n"), "carbon")


def test_signal_csv_rejects_hours_below_one_and_non_finite_values(tmp_path):
    path = tmp_path / "s.csv"
    # an hour-0 row would otherwise shift every value by one hour
    path.write_text("hour,value\n0,100\n1,200\n2,300\n")
    with pytest.raises(DomainError, match="expected hour 1, found 0"):
        load_signal_csv(str(path), "carbon")
    for kind in ("carbon", "capacity"):
        for cell in ("nan", "inf", "-inf"):
            path.write_text(f"hour,value\n1,5\n2,{cell}\n")
            with pytest.raises(DomainError, match=rf"s\.csv:3: bad row .*non-finite"):
                load_signal_csv(str(path), kind)
