import re
from pathlib import Path

import pytest

from dcsched.config import (
    ConfigError,
    DEFAULTS,
    dump_config,
    load_config,
)


def write(tmp_path, text):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    return str(p)


def test_defaults_load_and_validate():
    cfg = load_config(None)
    assert cfg["dc"]["total_servers"] == 20000
    assert cfg["signals"]["hours"] == 168
    assert cfg["sweep"]["seeds"] == [1]


def test_desk_scale_preset():
    cfg = load_config(None, desk_scale=True)
    assert cfg["dc"]["total_servers"] == 200
    assert cfg["signals"]["hours"] == 72
    assert cfg["profiles"]["jobs"] == 300
    # untouched sections keep their production-scale defaults
    assert cfg["dc"]["p_peak_mw"] == 100.0


def test_user_file_overrides_defaults(tmp_path):
    path = write(tmp_path, "dc:\n  total_servers: 16\nsignals:\n  hours: 24\n")
    cfg = load_config(path)
    assert cfg["dc"]["total_servers"] == 16
    assert cfg["signals"]["hours"] == 24
    assert cfg["dc"]["p_peak_mw"] == 100.0


def test_unknown_key_is_an_error(tmp_path):
    cases = [
        ("dc:\n  num_servers: 16\n", "dc.num_servers"),
        # the weights and the horizon are sweep axes only
        ("weights:\n  lambda_ce: 0.1\n", "weights"),
        ("horizons:\n  t_h: 12\n", "horizons"),
        ("solver:\n  lp_dump: true\n", "solver.lp_dump"),
        # stages are one hour and forecast sigmas are standard deviations
        ("dc:\n  dt_hours: 1\n", "dc.dt_hours"),
        ("signals:\n  sigma_is_variance: true\n", "signals.sigma_is_variance"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError, match=f"unknown config key: {needle}"):
            load_config(write(tmp_path, text))


def test_field_errors_name_the_field(tmp_path):
    cases = [
        ("dc:\n  total_servers: 0\n", "dc.total_servers"),
        ("sweep:\n  lambda_ce: [-1]\n", "sweep.lambda_ce"),
        ("sweep:\n  forecast: [psychic]\n", "sweep.forecast"),
        ("solver:\n  workers: 0\n", "solver.workers"),
        ("signals:\n  capacity:\n    mode: csv\n", "signals.capacity.csv"),
        # rules held by the domain objects a run builds from these fields
        ("profiles:\n  shapes: [square]\n", "profiles.shapes"),
        ("signals:\n  hours: 3\n", "signals.hours"),
        ("profiles:\n  k_buckets: [2, 1]\n", "profiles.k_buckets"),
        ("profiles:\n  max_runtime_hours: 0\n", "profiles.max_runtime_hours"),
        ("signals:\n  carbon:\n    base: -5\n", "signals.carbon.base"),
        ("signals:\n  carbon:\n    amplitude: 6\n", "signals.carbon.amplitude"),
        ("signals:\n  capacity:\n    step_stddev_frac: -0.1\n",
         "signals.capacity.step_stddev_frac"),
        ("signals:\n  capacity:\n    floor_frac: 1.5\n", "signals.capacity.floor_frac"),
        ("signals:\n  carbon_forecast_sigma: -0.1\n", "signals.carbon_forecast_sigma"),
        ("signals:\n  capacity_forecast_sigma: -0.1\n", "signals.capacity_forecast_sigma"),
        # each value is parsed to the type of its default
        ("dc:\n  total_servers: abc\n", "dc.total_servers: expected a number"),
        ("dc:\n  total_servers: 2.5\n", "dc.total_servers: expected an integer"),
        ("dc:\n  total_servers: true\n", "dc.total_servers: expected a number"),
        ("dc:\n  p_peak_mw: [100]\n", "dc.p_peak_mw: expected a number"),
        ("signals:\n  carbon:\n    base: .nan\n", "signals.carbon.base: expected a finite number"),
        ("solver:\n  time_limit_s: .inf\n", "solver.time_limit_s: expected a finite number"),
        ("sweep:\n  seeds: [1, 1.5]\n", "sweep.seeds: expected an integer"),
        ("sweep:\n  lambda_pd: 5\n", "sweep.lambda_pd: non-empty list required"),
        ("sweep:\n  horizon_t: []\n", "sweep.horizon_t: non-empty list required"),
        ("profiles:\n  shapes: [1]\n", "profiles.shapes: expected a string"),
        ("signals:\n  carbon:\n    csv: 3\n", "signals.carbon.csv: expected a string"),
        # each value names sweep cells, so a repeat would write the same files
        ("sweep:\n  seeds: [1, 1]\nsolver:\n  workers: 2\n", "sweep.seeds: values must be distinct"),
        ("sweep:\n  lambda_ce: [0.1, 0.1000001]\n", "sweep.lambda_ce: values must be distinct"),
        ("profiles:\n  shapes: [uniform, uniform]\n", "profiles.shapes: values must be distinct"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            load_config(write(tmp_path, text))


def test_values_are_parsed_to_the_type_of_their_default(tmp_path):
    path = write(tmp_path, (
        "dc:\n  total_servers: 16.0\n  p_peak_mw: 100\n"
        "solver:\n  gap: 1e-4\n"  # PyYAML reads this as a string
        "sweep:\n  lambda_ce: [0, 0.5]\n"
    ))
    cfg = load_config(path)
    assert type(cfg["dc"]["total_servers"]) is int and cfg["dc"]["total_servers"] == 16
    assert type(cfg["dc"]["p_peak_mw"]) is float
    assert cfg["solver"]["gap"] == 1e-4
    assert [type(x) for x in cfg["sweep"]["lambda_ce"]] == [float, float]
    assert cfg["signals"]["carbon"]["csv"] is None


def test_non_mapping_top_level_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "- a\n- b\n"))


def test_dump_is_stable_and_round_trips():
    cfg = load_config(None)
    text = dump_config(cfg)
    assert text == dump_config(cfg)
    assert "total_servers: 20000" in text


def test_defaults_untouched_by_load():
    before = DEFAULTS["dc"]["total_servers"]
    cfg = load_config(None, desk_scale=True)
    cfg["dc"]["total_servers"] = 1
    assert DEFAULTS["dc"]["total_servers"] == before


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        load_config(write(tmp_path, block))
