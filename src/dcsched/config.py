"""Experiment configuration: YAML sections {dc, signals, profiles, sweep,
solver} with production-scale defaults and field-level validation errors.
The objective weights and the look-ahead horizon are sweep axes only."""

from __future__ import annotations

import math
from typing import Any, Callable

import yaml

from .core import DCConfig, DomainError, HorizonConfig, ObjectiveWeights
from .signals import (
    CAPACITY,
    CARBON,
    capacity_walk,
    load_signal_csv,
    noisy_forecast,
    synthetic_carbon,
)
from .traces import AggregationRule, hour_weights, load_trace_csv, sample_arrivals


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


DEFAULTS: dict[str, Any] = {
    "dc": {
        "total_servers": 20000,
        "p_peak_mw": 100.0,
        "p_idle_mw": 30.0,
    },
    "signals": {
        "hours": 168,
        "carbon": {"source": "synthetic", "base": 500.0, "amplitude": 1.0, "csv": None},
        "capacity": {
            "mode": "fixed",  # fixed | walk | csv
            "step_stddev_frac": 0.05,
            "floor_frac": 0.5,
            "csv": None,
        },
        "carbon_forecast_sigma": 0.11,
        "capacity_forecast_sigma": 0.07,
    },
    "profiles": {
        "source": "synthetic",  # synthetic | trace
        "trace_csv": None,
        "jobs": 2000,
        "k_buckets": [1, 2, 4, 8, 16],
        "max_runtime_hours": 24,
        "shapes": ["uniform"],
    },
    "sweep": {
        "lambda_ce": [0.0],
        "lambda_pd": [0.0],
        "horizon_t": [24],
        "forecast": ["accurate"],
        "seeds": [1],
    },
    "solver": {
        "gap": 1e-4,
        "time_limit_s": 60.0,
        "workers": 1,
    },
    "output_dir": "results",
}

DESK_SCALE_OVERRIDES: dict[str, Any] = {
    "dc": {"total_servers": 200},
    "signals": {"hours": 72},
    "profiles": {"jobs": 300, "k_buckets": [1, 2, 4], "max_runtime_hours": 8},
}

FORECAST_MODES = ("accurate", "noisy_carbon", "noisy_capacity", "noisy_both")
# the longest run a config may ask for: a year, leap day included. A run
# builds arrays over its hours, so a larger value could exhaust the memory
MAX_HOURS = 366 * 24
# the most synthetic jobs: a year at the fleet's arrival rate (48,000 jobs in
# 56 hours) is ~7.5 million. `synthetic_jobs` draws two int64 entries per
# job, 160 MB at this bound, and steps through them one by one
MAX_JOBS = 10_000_000
# the longest look-ahead window: a week. The stage matrix grows as its
# square (classes x t_h(t_h+1)/2 allocation entries): at the fleet's 60
# classes, a 168-hour stage matrix holds 0.93 million entries, and building
# it took a process from 39 to 117 MB
MAX_HORIZON = 7 * 24
# the most pool workers: each is a forked Python process of its own, and a
# pool starts all of them at its first task, so a larger value could fork
# the machine out of processes or memory
MAX_WORKERS = 64


def _parse(value: Any, default: Any, where: str) -> Any:
    """The value at `where` as the type of its default: a mapping field by
    field, with the defaults filling in missing fields and an unknown key
    an error; a non-empty list item by item; an int, a float, a string, or
    a path where the default is None. A number must be finite; an int
    refuses a bool and a fraction."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'top level of the config'}: expected a mapping")
        prefix = f"{where}." if where else ""
        for key in value:
            if key not in default:
                raise ConfigError(f"unknown config key: {prefix}{key}")
        return {
            key: _parse(value.get(key, sub), sub, f"{prefix}{key}")
            for key, sub in default.items()
        }
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: non-empty list required")
        return [_parse(item, default[0], where) for item in value]
    if default is None or isinstance(default, str):
        if isinstance(value, str) or (default is None and value is None):
            return value
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    number = value
    if isinstance(value, str):
        try:
            number = float(value)  # PyYAML reads 1e-4 without a dot as a string
        except ValueError:
            pass
    if isinstance(number, bool) or not isinstance(number, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if isinstance(number, float) and not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if isinstance(default, float):
        return float(number)
    if isinstance(number, float) and not number.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(number)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _reach(where: str, build: Callable[[], object]) -> None:
    """Build a domain object for the rule it enforces and report a breach
    under the config field `where`. Each rule is reached with the fields it
    reads set and the others at valid values, so the breach names its field.
    A file the field names is read through its loader, and a file that
    cannot be read is reported the same way."""
    try:
        build()
    except (DomainError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def validate(data: dict[str, Any]) -> None:
    """Check the rules between parsed values (see `_parse` for their types)
    and read the CSV files the config uses."""
    dc = data["dc"]
    _reach("dc.total_servers", lambda: DCConfig(dc["total_servers"], 1.0, 0.0))
    _reach("dc.p_idle_mw", lambda: DCConfig(1, dc["p_peak_mw"], dc["p_idle_mw"]))

    sig = data["signals"]
    # on the value alone, before any rule that builds the run's hours is reached
    _require(sig["hours"] <= MAX_HOURS,
             f"signals.hours: at most {MAX_HOURS} (a year), got {sig['hours']}")
    _reach("signals.hours", lambda: sample_arrivals({}, "uniform", sig["hours"], seed=0))
    carbon = sig["carbon"]
    _require(
        carbon["source"] in ("synthetic", "csv"),
        "signals.carbon.source: must be 'synthetic' or 'csv'",
    )
    if carbon["source"] == "csv":
        _require(bool(carbon["csv"]), "signals.carbon.csv: path required")
        _reach("signals.carbon.csv",
               lambda: load_signal_csv(carbon["csv"], CARBON).require_hours(sig["hours"]))
    _reach("signals.carbon.base", lambda: synthetic_carbon(24, base=carbon["base"]))
    _reach(
        "signals.carbon.amplitude",
        lambda: synthetic_carbon(24, amplitude=carbon["amplitude"]),
    )
    capacity = sig["capacity"]
    _require(
        capacity["mode"] in ("fixed", "walk", "csv"),
        "signals.capacity.mode: must be 'fixed', 'walk' or 'csv'",
    )
    if capacity["mode"] == "csv":
        _require(bool(capacity["csv"]), "signals.capacity.csv: path required")
        _reach("signals.capacity.csv",
               lambda: load_signal_csv(capacity["csv"], CAPACITY).require_hours(sig["hours"]))
    _reach(
        "signals.capacity.step_stddev_frac",
        lambda: capacity_walk(1, 1, step_stddev=capacity["step_stddev_frac"]),
    )
    _reach(
        "signals.capacity.floor_frac",
        lambda: capacity_walk(1, 1, floor=capacity["floor_frac"]),
    )
    for key in ("carbon_forecast_sigma", "capacity_forecast_sigma"):
        _reach(f"signals.{key}", lambda: noisy_forecast(synthetic_carbon(24), sig[key], seed=0))

    prof = data["profiles"]
    _require(prof["source"] in ("synthetic", "trace"), "profiles.source: must be 'synthetic' or 'trace'")
    if prof["source"] == "trace":
        _require(bool(prof["trace_csv"]), "profiles.trace_csv: path required")
        _reach("profiles.trace_csv", lambda: load_trace_csv(prof["trace_csv"]))
    else:
        _require(prof["jobs"] >= 0, "profiles.jobs: must be >= 0")
        _require(prof["jobs"] <= MAX_JOBS,
                 f"profiles.jobs: at most {MAX_JOBS}, got {prof['jobs']}")
    _reach("profiles.k_buckets", lambda: AggregationRule(k_buckets=tuple(prof["k_buckets"])))
    # no job longer than MAX_HOURS can finish in a run, and `synthetic_jobs`
    # weighs each runtime hour, so a longer one would only allocate
    _require(prof["max_runtime_hours"] <= MAX_HOURS,
             f"profiles.max_runtime_hours: at most {MAX_HOURS} (a year), "
             f"got {prof['max_runtime_hours']}")
    _reach(
        "profiles.max_runtime_hours",
        lambda: AggregationRule(max_runtime_hours=prof["max_runtime_hours"]),
    )
    for shape in prof["shapes"]:
        _reach("profiles.shapes", lambda: hour_weights(shape, 24))

    sweep = data["sweep"]
    for mode in sweep["forecast"]:
        _require(mode in FORECAST_MODES, f"sweep.forecast: unknown mode {mode!r}")
    for key in ("lambda_ce", "lambda_pd"):
        for lam in sweep[key]:
            _reach(f"sweep.{key}", lambda: ObjectiveWeights(**{key: lam}))
    for t in sweep["horizon_t"]:
        # on the value alone, before any stage is built
        _require(t <= MAX_HORIZON, f"sweep.horizon_t: at most {MAX_HORIZON} (a week), got {t}")
        _reach("sweep.horizon_t", lambda: HorizonConfig(t, t, t))
    # each value names sweep cells (the weights as `:g`), so two equal names
    # would write the same files
    cell_names = {
        "profiles.shapes": prof["shapes"],
        "sweep.lambda_ce": [f"{lam:g}" for lam in sweep["lambda_ce"]],
        "sweep.lambda_pd": [f"{lam:g}" for lam in sweep["lambda_pd"]],
        "sweep.horizon_t": sweep["horizon_t"],
        "sweep.forecast": sweep["forecast"],
        "sweep.seeds": sweep["seeds"],
    }
    for where, names in cell_names.items():
        repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
        _require(repeated is None, f"{where}: values must be distinct; {repeated!r} repeats")

    solver = data["solver"]
    _require(solver["gap"] >= 0, "solver.gap: must be >= 0")
    _require(solver["time_limit_s"] > 0, "solver.time_limit_s: must be positive")
    _require(solver["workers"] >= 1, "solver.workers: must be >= 1")
    _require(solver["workers"] <= MAX_WORKERS,
             f"solver.workers: at most {MAX_WORKERS}, got {solver['workers']}")


def load_config(path: str | None, desk_scale: bool = False) -> dict[str, Any]:
    """Load YAML on top of the defaults; `desk_scale` applies the small
    CI-speed preset before the user file. Each value is parsed once, to the
    type of its default, so callers read ints and floats as they are."""
    base = _parse(DESK_SCALE_OVERRIDES, DEFAULTS, "") if desk_scale else DEFAULTS
    user = {}
    if path is not None:
        with open(path) as fh:
            try:
                user = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: not YAML: {exc}") from None
    data = _parse(user, base, "")
    validate(data)
    return data


def dump_config(data: dict[str, Any]) -> str:
    return yaml.safe_dump(data, sort_keys=True)


def dump_experiment(data: dict[str, Any]) -> str:
    """The config without its deployment settings (output_dir and
    solver.workers), which do not change what a run computes."""
    data = {key: value for key, value in data.items() if key != "output_dir"}
    data["solver"] = {key: value for key, value in data["solver"].items() if key != "workers"}
    return dump_config(data)
