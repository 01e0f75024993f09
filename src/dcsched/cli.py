"""Batch experiment driver.

Subcommands:
  run <config>         full receding-horizon sweep with reports
  offline <config>     perfect-information baseline only
  validate <config>    parse and validate the config, nothing else
  gen-signals <config> write carbon.csv, and for each sweep seed
                       capacity_s<seed>.csv, carbon_forecast_s<seed>.csv
                       and capacity_forecast_s<seed>.csv when a forecast
                       mode makes that forecast noisy, and
                       profile_s<seed>.csv, the arrivals of the first
                       profile shape only

Every sweep cell, and every offline schedule, runs in a process pool of
solver.workers processes, one worker or many, and never more workers than
tasks. Exit codes: 0 success; 1 if any cell or schedule failed, in which
case each failed one gets one `error: <cell>: ...` or `error: <shape> seed
<seed>: ...` line on stderr, a cell whose run aborted keeps its
`<cell>_trajectory.partial.csv`, summary.csv still lists every other cell
and every other schedule is still written and reported; 2 invalid config.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable

from . import __version__
from .config import ConfigError, dump_experiment, load_config
from .core import DCConfig, DomainError, HorizonConfig, JobClass, ObjectiveWeights
from .engine import RunAborted, run, write_trajectory_csv
from .metrics import summary_row, write_summary_csv
from .milp import solver_version
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


def _run_cell(cfg: dict, totals: dict[JobClass, int], cell: tuple,
              out_dir: str) -> tuple[bool, tuple[dict, list[str]] | str]:
    """Run one cell on the job mix `totals`; return (True, its summary row
    and its own manifest lines), or (False, its error) if the run aborted
    (its partial trajectory is written) or its set-up broke a domain
    invariant: plain data for the parent process."""
    shape, lce, lpd, horizon_t, mode, seed = cell
    name = _cell_name(cell)
    try:
        dc = _dc_config(cfg)
        profile = sample_arrivals(totals, shape, cfg["signals"]["hours"], seed)
        carbon = _carbon_truth(cfg)
        capacity = _capacity_truth(cfg, seed)
        carbon_fc, capacity_fc = _forecasts(cfg, mode, seed, carbon, capacity)
        traj = run(
            dc, profile, tuple(sorted(totals)), capacity, carbon,
            HorizonConfig(horizon_t, horizon_t, horizon_t), ObjectiveWeights(lce, lpd),
            capacity_forecast=capacity_fc, carbon_forecast=carbon_fc,
            gap_tol=cfg["solver"]["gap"], time_limit=cfg["solver"]["time_limit_s"],
        )
        write_trajectory_csv(traj, os.path.join(out_dir, f"{name}_trajectory.csv"))
        max_gap = max((rec.gap for rec in traj.records), default=0.0)
        manifest = [f"cell {name}", f"stages {len(traj.records)}",
                    f"max_mip_gap {max_gap:.3g}", f"slack_events {traj.slack_events()}"]
        label = dict(profile=shape, lambda_ce=f"{lce:g}", lambda_pd=f"{lpd:g}",
                     horizon_t=horizon_t, forecast=mode, seed=seed)
        return True, (summary_row(traj, carbon, capacity, dc, label), manifest)
    except RunAborted as exc:
        write_trajectory_csv(
            exc.trajectory, os.path.join(out_dir, f"{name}_trajectory.partial.csv")
        )
        return False, f"{name}: {exc}"
    except DomainError as exc:
        return False, f"{name}: {type(exc).__name__}: {exc}"


def _experiment_sha256(cfg: dict) -> str:
    """sha256 of what a run computes from: the experiment settings, with
    each input CSV the run reads named by the sha256 of its bytes instead of
    its path, and the path of a CSV it does not read left out."""
    data = copy.deepcopy(cfg)
    sig, prof = data["signals"], data["profiles"]
    for section, key, read in ((sig["carbon"], "csv", sig["carbon"]["source"] == "csv"),
                               (sig["capacity"], "csv", sig["capacity"]["mode"] == "csv"),
                               (prof, "trace_csv", prof["source"] == "trace")):
        section[key] = hashlib.sha256(Path(section[key]).read_bytes()).hexdigest() if read else None
    return hashlib.sha256(dump_experiment(data).encode()).hexdigest()


def _stdout_to_stderr() -> None:
    """Point a pool worker's fd 1 at stderr, so that whatever a solve prints
    there (HiGHS's stray lines among it) stays out of the command's stdout."""
    os.dup2(2, 1)


def _pool(cfg: dict, tasks: int) -> ProcessPoolExecutor:
    """A pool of solver.workers processes, never more than `tasks` of them,
    whose fd 1 points at stderr."""
    return ProcessPoolExecutor(max_workers=min(cfg["solver"]["workers"], tasks),
                               initializer=_stdout_to_stderr)


def _run_tasks(cfg: dict, task: Callable[..., tuple[bool, object]],
               args: list[tuple]) -> list[tuple[bool, object]]:
    """Run `task(*a)` for each `a` of `args` in a `_pool`; print each failed
    task's `error: ` line on stderr, in task order, and return every task's
    (ok, value), in task order. A task returns its own errors: an exception
    that leaves one leaves the command too."""
    results = []
    with _pool(cfg, len(args)) as pool:
        for future in [pool.submit(task, *a) for a in args]:
            ok, value = future.result()
            if not ok:
                print(f"error: {value}", file=sys.stderr)
            results.append((ok, value))
    return results


def cmd_run(cfg: dict) -> int:
    cells = _cells(cfg)  # never empty: every sweep list is parsed non-empty
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    totals = _class_totals(cfg)  # read once: every cell draws from the one job mix
    results = _run_tasks(cfg, _run_cell, [(cfg, totals, cell, out_dir) for cell in cells])
    done = {cell: value for cell, (ok, value) in zip(cells, results) if ok}
    # what every manifest of the sweep shares, found once, after the runs
    head = [f"dcsched {__version__}", f"config_sha256 {_experiment_sha256(cfg)}"]
    tail = [f"solver {solver_version()}"]
    for cell, (_, lines) in done.items():
        Path(out_dir, f"{_cell_name(cell)}_manifest.txt").write_text(
            "\n".join(head + lines + tail) + "\n")
    ordered = [done[cell][0] for cell in sorted(done, key=_cell_name)]
    write_summary_csv(ordered, os.path.join(out_dir, "summary.csv"))
    print(f"wrote {len(ordered)} of {len(cells)} cells to {out_dir}/summary.csv")
    return 0 if len(done) == len(cells) else 1


def _offline_schedule(cfg: dict, totals: dict[JobClass, int], shape: str,
                      seed: int) -> tuple[bool, str]:
    """Solve and write the offline schedule of one profile shape and seed;
    return whether it was solved and the line that reports it, or its
    error if the solve failed or its set-up broke a domain invariant."""
    try:
        profile = sample_arrivals(totals, shape, cfg["signals"]["hours"], seed)
        capacity = _capacity_truth(cfg, seed)
        schedule = solve_offline(
            profile, [int(v) for v in capacity.values], tuple(sorted(totals)),
            gap_tol=cfg["solver"]["gap"], time_limit=cfg["solver"]["time_limit_s"],
        )
    except (RuntimeError, DomainError) as exc:
        return False, f"{shape} seed {seed}: {type(exc).__name__}: {exc}"
    path = os.path.join(cfg["output_dir"], f"offline_{shape}_s{seed}.csv")
    write_schedule_csv(schedule, path)
    return True, f"{shape} seed {seed}: goodput {schedule.goodput} server-hours -> {path}"


def cmd_offline(cfg: dict) -> int:
    os.makedirs(cfg["output_dir"], exist_ok=True)
    totals = _class_totals(cfg)
    schedules = itertools.product(cfg["profiles"]["shapes"], cfg["sweep"]["seeds"])
    results = _run_tasks(cfg, _offline_schedule,
                         [(cfg, totals, shape, seed) for shape, seed in schedules])
    for ok, line in results:
        if ok:
            print(line)
    return 0 if all(ok for ok, _ in results) else 1


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


def cmd_validate(cfg: dict) -> int:
    print("config ok")
    return 0


_COMMANDS = {"run": cmd_run, "offline": cmd_offline, "validate": cmd_validate,
             "gen-signals": cmd_gen_signals}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcsched", description="Receding-horizon data-center scheduling experiments"
    )
    parser.add_argument("--desk-scale", action="store_true",
                        help="small preset (200 servers, 72 h) for quick runs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="YAML config (defaults used when omitted)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, desk_scale=args.desk_scale)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
