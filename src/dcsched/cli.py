"""Batch experiment driver.

Subcommands:
  run <config>         full receding-horizon sweep with reports
  offline <config>     perfect-information baseline only
  validate <config>    parse and validate the config, nothing else
  gen-signals <config> emit the signal CSVs a run would use

Every sweep cell runs in a process pool of solver.workers processes, one
worker or many. Exit codes: 0 success; 1 if any cell failed, in which case
each failed cell gets one `error: <cell>: ...` line on stderr, a cell whose
run aborted keeps its `<cell>_trajectory.partial.csv`, and summary.csv still
lists every other cell; 2 invalid config.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .config import ConfigError, dump_experiment, load_config
from .core import DCConfig, DomainError, HorizonConfig, JobClass, ObjectiveWeights
from .engine import RunAborted, run, write_trajectory_csv
from .metrics import summary_row, write_summary_csv
from .offline import solve_offline, write_schedule_csv
from .signals import (
    CAPACITY,
    CARBON,
    SignalSeries,
    capacity_walk,
    constant_capacity,
    load_signal_csv,
    noisy_forecast,
    save_signal_csv,
    synthetic_carbon,
)
from .traces import (
    AggregationRule,
    group_jobs,
    load_trace_csv,
    sample_arrivals,
    synthetic_jobs,
    write_profile_csv,
)

# fixed offsets so the independent random streams of one cell never collide
_SEED_WALK = 1009
_SEED_CARBON_FC = 2003
_SEED_CAPACITY_FC = 3001


def _dc_config(cfg: dict) -> DCConfig:
    dc = cfg["dc"]
    return DCConfig(dc["total_servers"], dc["p_peak_mw"], dc["p_idle_mw"])


def _class_totals(cfg: dict) -> dict[JobClass, int]:
    prof = cfg["profiles"]
    rule = AggregationRule(tuple(prof["k_buckets"]), prof["max_runtime_hours"])
    if prof["source"] == "trace":
        report = group_jobs(load_trace_csv(prof["trace_csv"]), rule)
        if report.dropped_long or report.dropped_oversize:
            print(
                f"trace: dropped {report.dropped_long} over-long and "
                f"{report.dropped_oversize} over-wide jobs",
                file=sys.stderr,
            )
        return report.class_totals
    return synthetic_jobs(
        prof["jobs"], tuple(prof["k_buckets"]), prof["max_runtime_hours"],
        seed=0,
    )


def _carbon_truth(cfg: dict) -> SignalSeries:
    sig = cfg["signals"]
    if sig["carbon"]["source"] == "csv":
        return load_signal_csv(sig["carbon"]["csv"], CARBON)
    return synthetic_carbon(sig["hours"], sig["carbon"]["base"], sig["carbon"]["amplitude"])


def _capacity_truth(cfg: dict, seed: int) -> SignalSeries:
    sig = cfg["signals"]
    servers = cfg["dc"]["total_servers"]
    mode = sig["capacity"]["mode"]
    if mode == "csv":
        return load_signal_csv(sig["capacity"]["csv"], CAPACITY)
    if mode == "walk":
        return capacity_walk(
            servers, sig["hours"],
            sig["capacity"]["step_stddev_frac"],
            sig["capacity"]["floor_frac"],
            seed=seed + _SEED_WALK,
        )
    return constant_capacity(servers, sig["hours"])


def _forecasts(
    cfg: dict, mode: str, seed: int,
    carbon: SignalSeries, capacity: SignalSeries,
) -> tuple[SignalSeries | None, SignalSeries | None]:
    sig = cfg["signals"]
    carbon_fc = capacity_fc = None
    if mode in ("noisy_carbon", "noisy_both"):
        carbon_fc = noisy_forecast(
            carbon, sig["carbon_forecast_sigma"], seed + _SEED_CARBON_FC
        )
    if mode in ("noisy_capacity", "noisy_both"):
        capacity_fc = noisy_forecast(
            capacity, sig["capacity_forecast_sigma"], seed + _SEED_CAPACITY_FC,
            total_servers=cfg["dc"]["total_servers"],
        )
    return carbon_fc, capacity_fc


def _cells(cfg: dict) -> list[tuple]:
    sweep = cfg["sweep"]
    return list(itertools.product(
        cfg["profiles"]["shapes"],
        sweep["lambda_ce"],
        sweep["lambda_pd"],
        sweep["horizon_t"],
        sweep["forecast"],
        sweep["seeds"],
    ))


def _cell_name(cell: tuple) -> str:
    shape, lce, lpd, t, mode, seed = cell
    return f"{shape}_ce{lce:g}_pd{lpd:g}_T{t}_{mode}_s{seed}"


def _run_cell(cfg: dict, cell: tuple, out_dir: str) -> dict | str:
    """Run one cell and return its summary row, or an error string if the
    run aborted (its partial trajectory is written) or its set-up broke a
    domain invariant. Only plain data goes back to the parent process."""
    name = _cell_name(cell)
    try:
        return _run_cell_or_raise(cfg, cell, out_dir)
    except RunAborted as exc:
        write_trajectory_csv(
            exc.trajectory, os.path.join(out_dir, f"{name}_trajectory.partial.csv")
        )
        return str(exc)
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def _run_cell_or_raise(cfg: dict, cell: tuple, out_dir: str) -> dict:
    shape, lce, lpd, horizon_t, mode, seed = cell
    dc = _dc_config(cfg)
    totals = _class_totals(cfg)
    profile = sample_arrivals(totals, shape, cfg["signals"]["hours"], seed)
    classes = tuple(sorted(totals))
    carbon = _carbon_truth(cfg)
    capacity = _capacity_truth(cfg, seed)
    carbon_fc, capacity_fc = _forecasts(cfg, mode, seed, carbon, capacity)
    horizons = HorizonConfig(horizon_t, horizon_t, horizon_t)
    weights = ObjectiveWeights(lce, lpd)

    name = _cell_name(cell)
    label = dict(profile=shape, lambda_ce=f"{lce:g}", lambda_pd=f"{lpd:g}",
                 horizon_t=horizon_t, forecast=mode, seed=seed)
    traj = run(
        dc, profile, classes, capacity, carbon, horizons, weights,
        capacity_forecast=capacity_fc, carbon_forecast=carbon_fc,
        gap_tol=cfg["solver"]["gap"], time_limit=cfg["solver"]["time_limit_s"],
    )
    write_trajectory_csv(traj, os.path.join(out_dir, f"{name}_trajectory.csv"))
    _write_manifest(cfg, cell, traj, os.path.join(out_dir, f"{name}_manifest.txt"))
    return summary_row(traj, carbon, capacity, dc, label)


def _write_manifest(cfg: dict, cell: tuple, traj, path: str) -> None:
    digest = hashlib.sha256(dump_experiment(cfg).encode()).hexdigest()
    max_gap = max((rec.gap for rec in traj.records), default=0.0)
    lines = [
        f"dcsched {__version__}",
        f"config_sha256 {digest}",
        f"cell {_cell_name(cell)}",
        f"stages {len(traj.records)}",
        f"max_mip_gap {max_gap:.3g}",
        f"slack_events {traj.slack_events()}",
        "solver highs-via-scipy",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _stdout_to_stderr() -> None:
    """Point a pool worker's fd 1 at stderr, so that whatever a cell prints
    there (HiGHS's stray lines among it) stays out of the sweep's stdout."""
    os.dup2(2, 1)


@contextmanager
def _stdout_on_stderr():
    """As `_stdout_to_stderr`, in this process and for the block only."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def cmd_run(cfg: dict) -> int:
    cells = _cells(cfg)  # never empty: every sweep list is parsed non-empty
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    workers = cfg["solver"]["workers"]
    rows: dict[tuple, dict] = {}
    failed = False
    with ProcessPoolExecutor(max_workers=workers, initializer=_stdout_to_stderr) as pool:
        futures = {
            pool.submit(_run_cell, cfg, cell, out_dir): cell for cell in cells
        }
        for future, cell in futures.items():
            result = future.result()
            if isinstance(result, str):
                failed = True
                print(f"error: {_cell_name(cell)}: {result}", file=sys.stderr)
            else:
                rows[cell] = result
    ordered = [rows[cell] for cell in sorted(rows, key=_cell_name)]
    write_summary_csv(ordered, os.path.join(out_dir, "summary.csv"))
    print(f"wrote {len(ordered)} of {len(cells)} cells to {out_dir}/summary.csv")
    return 1 if failed else 0


def cmd_offline(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    totals = _class_totals(cfg)
    classes = tuple(sorted(totals))
    for shape in cfg["profiles"]["shapes"]:
        for seed in cfg["sweep"]["seeds"]:
            profile = sample_arrivals(totals, shape, cfg["signals"]["hours"], seed)
            capacity = _capacity_truth(cfg, seed)
            # the solve runs here, not in a worker: keep HiGHS's stray
            # lines out of the command's stdout
            with _stdout_on_stderr():
                schedule = solve_offline(
                    profile, [int(v) for v in capacity.values], classes,
                    gap_tol=cfg["solver"]["gap"], time_limit=cfg["solver"]["time_limit_s"],
                )
            path = os.path.join(out_dir, f"offline_{shape}_s{seed}.csv")
            write_schedule_csv(schedule, path)
            print(f"{shape} seed {seed}: goodput {schedule.goodput} server-hours -> {path}")
    return 0


def cmd_gen_signals(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    carbon = _carbon_truth(cfg)
    save_signal_csv(carbon, os.path.join(out_dir, "carbon.csv"))
    totals = _class_totals(cfg)
    for seed in cfg["sweep"]["seeds"]:
        capacity = _capacity_truth(cfg, seed)
        save_signal_csv(capacity, os.path.join(out_dir, f"capacity_s{seed}.csv"))
        for mode in cfg["sweep"]["forecast"]:
            carbon_fc, capacity_fc = _forecasts(cfg, mode, seed, carbon, capacity)
            if carbon_fc is not None:
                save_signal_csv(
                    carbon_fc, os.path.join(out_dir, f"carbon_forecast_s{seed}.csv")
                )
            if capacity_fc is not None:
                save_signal_csv(
                    capacity_fc, os.path.join(out_dir, f"capacity_forecast_s{seed}.csv")
                )
        profile = sample_arrivals(
            totals, cfg["profiles"]["shapes"][0], cfg["signals"]["hours"], seed
        )
        write_profile_csv(profile, os.path.join(out_dir, f"profile_s{seed}.csv"))
    print(f"signal CSVs written to {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcsched", description="Receding-horizon data-center scheduling experiments"
    )
    parser.add_argument("--desk-scale", action="store_true",
                        help="small preset (200 servers, 72 h) for quick runs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "offline", "validate", "gen-signals"):
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="YAML config (defaults used when omitted)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, desk_scale=args.desk_scale)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config ok")
        return 0
    if args.command == "run":
        return cmd_run(cfg)
    if args.command == "offline":
        return cmd_offline(cfg)
    if args.command == "gen-signals":
        return cmd_gen_signals(cfg)
    return 2


if __name__ == "__main__":
    sys.exit(main())
