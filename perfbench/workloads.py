"""The benchmark's workloads, each generated from its seed.

``fleet_shaping`` calls ``dcsched.engine.run`` directly; ``desk_sweep`` goes
through the command-line entry point ``dcsched.cli.main``.
Every receding-horizon run is a closed loop: the decision for hour r+1 is
asked for only after the decision for hour r has been applied.

The passes a run makes are fixed, so the number of stage samples, and with
it the tail percentile, is too. ``fleet_shaping`` runs its four episodes
once, or untraced and then traced under a recorder. ``desk_sweep`` always sweeps
twice at the same seed (the second time traced under a recorder) and
requires byte-identical ``summary.csv`` texts. Quality figures come from the
first pass; a second pass must reproduce it exactly.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

import dcsched.cli
import dcsched.engine
import dcsched.milp
import dcsched.offline
import dcsched.stage
from dcsched import metrics, offline, signals, traces
from dcsched.core import ArrivalProfile, DCConfig, DomainError, HorizonConfig, ObjectiveWeights
from dcsched.engine import RunAborted

from checks import check_goodput, check_trajectory
from spans import Recorder, patch

# dcsched's solver default (engine.run, the CLI's solver.gap); the offline
# bound uses it too, so a bound is reached in seconds, not at the time limit
GAP_TOL = 1e-4


@dataclass
class Outcome:
    """What one measured pass over a workload produced."""

    latencies: list[float] = field(default_factory=list)  # s per timed solve_stage call
    loop_walls: list[float] = field(default_factory=list)  # s per run() or sweep
    loop_stages: list[int] = field(default_factory=list)  # decisions per run() or sweep
    attempted: int = 0  # decisions asked for
    failed: int = 0  # decisions not delivered plus failed checks
    problems: list[str] = field(default_factory=list)
    statuses: Counter = field(default_factory=Counter)
    goodput: int = 0
    wasted: int = 0
    bound: int = 0
    co2_kg: float = 0.0
    peak_mw: list[float] = field(default_factory=list)
    loop_rss_kb: int = 0  # this process's peak once the measured decisions are done
    workers_rss_kb: int = 0  # largest sum over one sweep's workers of their own growth
    cell_walls: list[float] = field(default_factory=list)  # s per cell, first sweep
    workers: int = 0

    @property
    def stages(self) -> int:
        """Decisions delivered."""
        return sum(self.loop_stages)

    def fail(self, problems: list[str]) -> None:
        self.problems.extend(problems)
        self.failed += len(problems)


def stage_hooks(latencies: list[float]):
    """Time every hourly decision at the binding ``engine.run`` calls."""

    def timed(original, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    return patch(dcsched.engine, "solve_stage", timed)


def trace_layers(recorder: Recorder) -> None:
    """Span the stage, MILP, engine and offline layers below their callers."""
    recorder.wrap(dcsched.milp, "_scipy_milp", "milp.highs")
    recorder.wrap(dcsched.stage, "solve", "milp.solve", observe=_solve_status)
    recorder.wrap(dcsched.stage, "build_stage", "stage.build_stage",
                  observe=_model_size("stage.model"))
    recorder.wrap(dcsched.stage, "validate_decision", "stage.validate_decision")
    recorder.wrap(dcsched.engine, "check_state", "core.check_state")
    recorder.wrap(dcsched.engine, "advance_state", "engine.advance_state")
    recorder.wrap(dcsched.engine, "assemble_inputs", "engine.assemble_inputs")
    recorder.wrap(dcsched.engine, "solve_stage", "stage.solve_stage", observe=_terminations)
    recorder.wrap(dcsched.offline, "build_offline", "offline.build_offline",
                  observe=_model_size("offline.model"))


def _solve_status(recorder: Recorder, res) -> None:
    recorder.counts["milp.status." + res.status.replace("-", "_")] += 1
    if res.status in ("optimal", "feasible-gap"):
        recorder.note_max("milp.mip_gap.max", res.gap)


def _terminations(recorder: Recorder, decision) -> None:
    recorder.counts["stage.terminations"] += sum(decision.terminations.values())


def _model_size(prefix: str):
    def observe(recorder: Recorder, result) -> None:
        model = result[0]
        recorder.counts[prefix + ".builds"] += 1
        recorder.counts[prefix + ".vars"] += len(model.variables)
        recorder.counts[prefix + ".int_vars"] += sum(v.kind == "integer" for v in model.variables)
        recorder.counts[prefix + ".cons"] += len(model.constraints)
        recorder.counts[prefix + ".nnz"] += sum(len(c.coeffs) for c in model.constraints)
    return observe


def solve_offline_bound(profile, capacity, classes) -> tuple[int, float]:
    """Solve the perfect-information MILP; return its goodput and the
    relative MIP gap HiGHS reported."""
    gaps = []

    def keep_gap(original, *args, **kwargs):
        res = original(*args, **kwargs)
        gaps.append(res.gap)
        return res

    undo = patch(dcsched.offline, "solve", keep_gap)
    try:
        schedule = offline.solve_offline(
            profile, [int(v) for v in capacity.values], classes,
            require_completion=True, gap_tol=GAP_TOL,
        )
    finally:
        undo()
    return schedule.goodput, gaps[0]


# ------------------------------------------------------------------ fleet

@dataclass
class Episode:
    cfg: DCConfig
    profile: ArrivalProfile
    classes: tuple
    capacity: Any
    carbon: Any
    horizons: HorizonConfig
    weights: ObjectiveWeights


class FleetShaping:
    """Production-scale hourly controller through ``dcsched.engine.run``:
    20,000 servers, 60 job classes, 24-hour look-ahead, carbon and peak
    prices, constant capacity, accurate forecasts. A run is four episodes,
    each with its own seed-drawn arrivals."""

    name = "fleet_shaping"
    servers = 20000
    episodes = 4
    hours = 56
    max_runtime = 12
    jobs = 48000  # ~55% fleet load
    horizons = HorizonConfig(24, 24, 24)
    # A controller that runs on always sees a full look-ahead window in
    # which every start can finish. In the last 34 stages of an episode the
    # end of the run cuts that window short and the stages solve ever
    # faster, down to a few ms; latency percentiles leave them out, since a
    # median over both groups falls on that decline and swings with it.
    steady_stages = hours - horizons.t_h - max_runtime + 2

    def prepare(self, seed: int, workdir: Path) -> list[Episode]:
        # the class mix is fixed, as the CLI fixes it; arrivals follow the seed
        totals = traces.synthetic_jobs(self.jobs, (1, 2, 4, 8, 16), self.max_runtime, seed=0)
        return [
            Episode(
                cfg=DCConfig(self.servers, 100.0, 30.0),
                profile=traces.sample_arrivals(
                    totals, "small_var", self.hours, seed * self.episodes + i),
                classes=tuple(sorted(totals)),
                capacity=signals.constant_capacity(self.servers, self.hours),
                carbon=signals.synthetic_carbon(self.hours),
                horizons=self.horizons,
                weights=ObjectiveWeights(lambda_ce=0.1, lambda_pd=5.0),
            )
            for i in range(self.episodes)
        ]

    def first_stage(self, eps: list[Episode]) -> None:
        """Run until the first stage solve (used to time set-up)."""
        self._run(eps[0])

    @staticmethod
    def _run(ep: Episode):
        return dcsched.engine.run(
            ep.cfg, ep.profile, ep.classes, ep.capacity, ep.carbon, ep.horizons, ep.weights,
        )

    @staticmethod
    def _trace(recorder: Recorder) -> None:
        trace_layers(recorder)
        recorder.wrap(traces, "synthetic_jobs", "traces.synthetic_jobs")
        recorder.wrap(traces, "sample_arrivals", "traces.sample_arrivals")
        recorder.wrap(dcsched.engine, "run", "engine.run")
        for fn in ("total_emissions", "peak_power", "goodput"):
            recorder.wrap(metrics, fn, "metrics")
        recorder.wrap(offline, "solve_offline", "offline.solve_offline")

    def measure(self, seed: int, workdir: Path, recorder: Recorder | None = None) -> Outcome:
        """Run the episodes once, then solve their offline bounds.

        With a recorder, the untraced pass is followed by a traced one (set-up
        included) that must reproduce it, and the offline solves are traced.
        """
        out = Outcome()
        undo = stage_hooks(out.latencies)
        try:
            eps = self.prepare(seed, workdir)
            scores = [[self._pass(ep, out) for ep in eps]]
            if recorder is not None:
                self._trace(recorder)
                recorder.run_id = "setup"
                eps = self.prepare(seed, workdir)
                recorder.run_id = "episode"
                scores.append([self._pass(ep, out) for ep in eps])
            # the offline bound is a research yardstick, not part of the
            # controller: its branch-and-bound memory stays out of the peak
            out.loop_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if recorder is not None:
                recorder.run_id = "offline"
            bounds = [solve_offline_bound(ep.profile, ep.capacity, ep.classes) for ep in eps]
        finally:
            if recorder is not None:
                recorder.restore()
            undo()
        if scores[-1] != scores[0]:
            out.fail(["the traced run differs from the untraced run"])
        for score, (bound, gap) in zip(scores[0], bounds):
            if score is None:
                continue
            goodput, wasted, co2_kg, peak, statuses, problems = score
            out.goodput += goodput
            out.wasted += wasted
            out.co2_kg += co2_kg
            out.bound += bound
            out.peak_mw.append(peak)
            out.statuses.update(dict(statuses))
            out.fail(problems)
            out.fail(check_goodput(goodput, bound, gap))
        return out

    def _pass(self, ep: Episode, out: Outcome) -> tuple | None:
        """Run one episode; return its score, or None if it aborted."""
        out.attempted += ep.profile.horizon
        first = len(out.latencies)
        start = time.perf_counter()
        try:
            traj = self._run(ep)
        except (RunAborted, DomainError) as exc:
            # a DomainError is one of dcsched's own invariant checks failing
            done = len(exc.trajectory.records) if isinstance(exc, RunAborted) else 0
            out.loop_stages.append(done)
            out.failed += ep.profile.horizon - done
            out.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            out.loop_walls.append(time.perf_counter() - start)
            del out.latencies[first + self.steady_stages:]
        out.loop_stages.append(len(traj.records))
        return self._score(ep, traj)

    @staticmethod
    def _score(ep: Episode, traj) -> tuple:
        gp = metrics.goodput(traj, ep.capacity)
        return (
            gp.completed_server_hours,
            gp.wasted_server_hours,
            metrics.total_emissions(traj, ep.carbon, ep.cfg),
            metrics.peak_power(traj, ep.cfg),
            sorted(Counter(rec.status for rec in traj.records).items()),
            check_trajectory(traj, ep.profile, ep.capacity),
        )


# ------------------------------------------------------------------ sweep

class DeskSweep:
    """The paper's experiment grid through ``dcsched.cli.main(["run", cfg])``:
    lambda_ce x lambda_pd x horizon_t x forecast (16 cells) for each of two
    fixed scenario seeds, on a 2-worker process pool.

    The scenario seeds fix arrivals, capacity walks and forecast errors; the
    benchmark seed draws the true carbon series, which the CLI reads from a
    CSV. Seed-drawn scenarios move the sweep's tail latency by a factor of
    several and its goodput by ~8% between seeds.
    """

    name = "desk_sweep"
    workers = 2
    grid_cells = 16
    scenario_seeds = [1, 2]  # one scenario's few hard cells would set the figures
    hours = 24
    jobs = 100
    carbon_sigma = 0.11

    def config(self, out_dir: Path, carbon_csv: Path) -> dict:
        return {
            "dc": {"total_servers": 200},
            "signals": {
                "hours": self.hours,
                "capacity": {"mode": "walk"},
                "carbon": {"source": "csv", "csv": str(carbon_csv)},
            },
            "profiles": {"jobs": self.jobs, "k_buckets": [1, 2, 4], "max_runtime_hours": 8},
            "sweep": {
                "lambda_ce": [0.0, 0.1],
                "lambda_pd": [0.0, 5.0],
                "horizon_t": [9, 24],
                "forecast": ["accurate", "noisy_both"],
                "seeds": self.scenario_seeds,
            },
            "solver": {"workers": self.workers},
            "output_dir": str(out_dir),
        }

    def write_config(self, seed: int, workdir: Path, label: str) -> Path:
        """Write the carbon series drawn from ``seed`` and a sweep config
        whose output goes to ``workdir / label``."""
        workdir.mkdir(parents=True, exist_ok=True)
        carbon_csv = workdir / "carbon.csv"
        carbon = signals.noisy_forecast(
            signals.synthetic_carbon(self.hours), self.carbon_sigma, seed)
        signals.save_signal_csv(carbon, str(carbon_csv))
        path = workdir / f"{label}.yaml"
        path.write_text(yaml.safe_dump(self.config(workdir / label, carbon_csv)))
        return path

    def prepare(self, seed: int, workdir: Path) -> Path:
        return self.write_config(seed, workdir, "probe")

    def first_stage(self, config_path: Path) -> None:
        dcsched.cli.main(["run", str(config_path)])

    def measure(self, seed: int, workdir: Path, recorder: Recorder | None = None) -> Outcome:
        """Sweep twice at the same seed, the second time traced when a
        recorder is given, and require byte-identical summary.csv texts;
        then solve each scenario's offline bound (traced too)."""
        out = Outcome(workers=self.workers)
        first = self._sweep(seed, workdir, "sweep0", out, None)
        second = self._sweep(seed, workdir, "sweep1", out, recorder)
        if second != first:
            out.fail(["summary.csv differs between two sweeps of the same seed"])
        # the offline bounds come after this reading, so their
        # branch-and-bound memory stays out of the peak
        out.loop_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        inputs = self._offline_inputs(seed, workdir)
        if recorder is not None:
            recorder.run_id = "offline"
            trace_layers(recorder)
            recorder.wrap(offline, "solve_offline", "offline.solve_offline")
        try:
            bounds = {s: solve_offline_bound(profile, capacity, tuple(sorted(profile.classes())))
                      for s, (profile, capacity) in inputs.items()}
        finally:
            if recorder is not None:
                recorder.restore()
        for row in csv.DictReader(first.splitlines()):
            bound, gap = bounds[int(row["seed"])]
            goodput = int(row["goodput_server_hours"])
            out.goodput += goodput
            out.wasted += int(row["wasted_server_hours"])
            out.co2_kg += float(row["co2_kg"])
            out.peak_mw.append(float(row["peak_mw"]))
            out.bound += bound
            out.fail(check_goodput(goodput, bound, gap))
        return out

    def _offline_inputs(self, seed: int, workdir: Path) -> dict:
        """Each sweep seed's capacity series and arrival profile, as
        ``dcsched gen-signals`` writes them for the sweep."""
        path = self.write_config(seed, workdir, "signals")
        if dcsched.cli.main(["gen-signals", str(path)]) != 0:
            raise RuntimeError("dcsched gen-signals failed")
        sig_dir = workdir / "signals"
        inputs = {}
        for s in self.scenario_seeds:
            capacity = signals.load_signal_csv(str(sig_dir / f"capacity_s{s}.csv"), signals.CAPACITY)
            loaded = traces.load_profile_csv(str(sig_dir / f"profile_s{s}.csv"))
            inputs[s] = (ArrivalProfile(loaded.counts, self.hours), capacity)
        return inputs

    def _sweep(self, seed: int, workdir: Path, label: str, out: Outcome,
               recorder: Recorder | None) -> str:
        """Run one sweep, check its cells, and return its summary.csv text."""
        config_path = self.write_config(seed, workdir, label)
        cells_dir = workdir / f"{label}-cells"
        cells_dir.mkdir()
        hooks = CellHooks(cells_dir, recorder)
        undo = hooks.install()
        # fork-started workers begin with this high-water mark; only their
        # growth beyond it is their own memory
        base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        try:
            code = dcsched.cli.main(["run", str(config_path)])
        except DomainError as exc:  # one of dcsched's own invariant checks failed
            code = f"DomainError: {exc}"
        finally:
            wall = time.perf_counter() - start
            for u in reversed(undo):
                u()
            if recorder is not None:
                recorder.restore()
        cells = self.grid_cells * len(self.scenario_seeds)
        if code != 0:
            out.fail([f"{label}: dcsched run ended with {code}"])
        summary_path = workdir / label / "summary.csv"
        summary = summary_path.read_text() if summary_path.exists() else ""
        rows = max(len(summary.splitlines()) - 1, 0)
        if rows != cells:
            out.failed += (cells - rows) * self.hours
            out.problems.append(f"{label}: {rows} of {cells} cells in summary.csv")
        records = [json.loads(p.read_text()) for p in sorted(cells_dir.glob("*.json"))]
        if len(records) != rows:
            out.fail([f"{label}: {len(records)} cell records for {rows} summary rows"])
        peak_kb: dict[int, int] = {}
        stages = 0
        for i, rec in enumerate(records):
            out.fail(rec["problems"])
            peak_kb[rec["pid"]] = max(peak_kb.get(rec["pid"], 0), rec["maxrss_kb"])
            out.latencies.extend(rec["latencies"])
            stages += rec["stages"]
            if label == "sweep0":
                out.cell_walls.append(rec["wall"])
                out.statuses.update(rec["statuses"])
            if recorder is not None:
                recorder.merge(rec["trace"], f"{label}-cell{i}")
        growth_kb = sum(max(kb - base_kb, 0) for kb in peak_kb.values())
        out.workers_rss_kb = max(out.workers_rss_kb, growth_kb)
        out.attempted += cells * self.hours
        out.loop_walls.append(wall)
        out.loop_stages.append(stages)
        return summary


class CellHooks:
    """Per-cell hooks that run inside the sweep's pool workers.

    They are installed before ``dcsched.cli.main`` creates its process pool,
    so fork-started workers inherit them. The hook on ``dcsched.cli.run``
    times the cell's run and checks its trajectory; the hook on
    ``dcsched.cli.summary_row``, the last call of each cell, writes the
    cell's record (and, when tracing, its spans) to ``cells_dir``.
    """

    def __init__(self, cells_dir: Path, recorder: Recorder | None) -> None:
        self.cells_dir = cells_dir
        self.recorder = recorder
        self.latencies: list[float] = []
        self.pending: dict = {}
        self.written = 0

    def install(self) -> list:
        """Install the hooks; return their undo functions, oldest first."""
        rec = self.recorder
        if rec is not None:
            trace_layers(rec)
            rec.wrap(dcsched.cli, "load_config", "config.load_config")
            rec.wrap(dcsched.cli, "synthetic_jobs", "traces.synthetic_jobs")
            rec.wrap(dcsched.cli, "sample_arrivals", "traces.sample_arrivals")
            rec.wrap(dcsched.cli, "capacity_walk", "signals.capacity_walk")
            rec.wrap(dcsched.cli, "noisy_forecast", "signals.noisy_forecast")
            rec.wrap(dcsched.cli, "run", "engine.run")
            rec.wrap(dcsched.cli, "summary_row", "metrics")
        # the hooks sit outside the spans, so spans exclude the checks
        return [
            stage_hooks(self.latencies),
            patch(dcsched.cli, "run", self._run),
            patch(dcsched.cli, "summary_row", self._summary_row),
        ]

    def _run(self, original, dc, profile, classes, capacity, *args, **kwargs):
        first = len(self.latencies)
        start = time.perf_counter()
        traj = original(dc, profile, classes, capacity, *args, **kwargs)
        wall = time.perf_counter() - start
        self.pending = {
            "wall": wall,
            "latencies": self.latencies[first:],
            "stages": len(traj.records),
            "statuses": Counter(rec.status for rec in traj.records),
            "problems": check_trajectory(traj, profile, capacity),
        }
        return traj

    def _summary_row(self, original, *args, **kwargs):
        row = original(*args, **kwargs)
        record = dict(
            self.pending,
            pid=os.getpid(),
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if self.recorder is not None:
            record["trace"] = self.recorder.take()
        self.written += 1
        path = self.cells_dir / f"{os.getpid()}-{self.written}.json"
        path.write_text(json.dumps(record))
        return row


WORKLOADS = {w.name: w for w in (FleetShaping(), DeskSweep())}
