"""dcsched benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet_shaping --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (compared against an
untraced pass of the same work). ``--seconds`` is accepted and ignored:
each workload makes a fixed set of passes, so its number of stage samples,
and with it the tail percentile, does not depend on it. The last line of standard output is the
result; the program's own output, HiGHS's included, goes to stderr. The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Results leave through a private copy of stdout; fd 1 itself goes to stderr,
# so stray solver lines (also from forked workers) cannot reach the result.
RESULT_FD = os.dup(1)
os.dup2(2, 1)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up probes before and after the measured work, so their median
# samples more of the run than a burst would
SETUP_PROBES = (3, 2)
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "stages_per_s": "1/s",
    "stage_p50_ms": "ms",
    "stage_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "goodput_server_hours": "server-h",
    "co2_kg": "kg",
    "peak_mw": "MW",
    "useful_work_frac": "ratio",
    "offline_ratio": "ratio",
    "optimal_frac": "ratio",
}


def emit(line: str) -> None:
    os.write(RESULT_FD, (line + "\n").encode())


def machine_context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(name: str, seed: int, workdir: Path, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first stage solve."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(SRC), name, str(seed), str(workdir)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when a failed run left nothing to divide by."""
    return num / den if den else 0.0


def end_to_end(out, setup_times: list[float]) -> dict[str, float]:
    rss_kb = out.loop_rss_kb + out.workers_rss_kb
    latencies = out.latencies or [0.0]
    return {
        "setup_s": statistics.median(setup_times),
        "stages_per_s": statistics.median(
            ratio(n, wall) for n, wall in zip(out.loop_stages, out.loop_walls)),
        "stage_p50_ms": 1000.0 * statistics.median(latencies),
        "stage_tail_ms": 1000.0 * tail(latencies)[0],
        "peak_rss_mb": rss_kb / 1024.0,
        "goodput_server_hours": float(out.goodput),
        "co2_kg": out.co2_kg,
        "peak_mw": statistics.fmean(out.peak_mw or [0.0]),
        "useful_work_frac": ratio(out.goodput, out.goodput + out.wasted),
        "offline_ratio": ratio(out.goodput, out.bound),
        "optimal_frac": ratio(out.statuses["optimal"], sum(out.statuses.values())),
    }


def per_layer(out, recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass; counts are exact."""
    from spans import span_times

    spans = recorder.spans
    total, own, calls, durations = span_times(spans)
    counts = recorder.counts
    # HiGHS calls made for stage problems, not for the offline bound
    highs = [durations[i] for i, s in enumerate(spans)
             if s[0] == "milp.highs" and s[3] is not None and spans[s[3]][0] == "milp.solve"]
    solves = calls["milp.solve"]
    stage_calls = calls["stage.solve_stage"]
    builds = counts["stage.model.builds"]
    offline_builds = counts["offline.model.builds"]
    cell_walls = out.cell_walls
    walls = out.loop_walls
    half = len(walls) // 2

    def mean(key: str, n: int) -> float:
        return counts[key] / n if n else 0.0

    return {
        "milp.highs.calls": (len(highs), "count"),
        "milp.highs.s": (sum(highs), "s"),
        "milp.highs_per_solve": (len(highs) / solves if solves else 0.0, "ratio"),
        "milp.status.optimal": (counts["milp.status.optimal"], "count"),
        "milp.status.feasible_gap": (counts["milp.status.feasible_gap"], "count"),
        "milp.status.infeasible": (counts["milp.status.infeasible"], "count"),
        "milp.mip_gap.max": (recorder.maxima.get("milp.mip_gap.max", 0.0), "ratio"),
        "milp.solve.calls": (solves, "count"),
        "milp.solve.self_s": (own["milp.solve"], "s"),
        "stage.solve_stage.calls": (stage_calls, "count"),
        "stage.solve_stage.self_s": (own["stage.solve_stage"], "s"),
        "stage.build_stage.calls": (calls["stage.build_stage"], "count"),
        "stage.build_stage.s": (total["stage.build_stage"], "s"),
        "stage.builds_per_stage": (builds / stage_calls if stage_calls else 0.0, "ratio"),
        "stage.validate_decision.s": (total["stage.validate_decision"], "s"),
        "stage.terminations": (counts["stage.terminations"], "count"),
        "stage.model.vars": (mean("stage.model.vars", builds), "count"),
        "stage.model.int_vars": (mean("stage.model.int_vars", builds), "count"),
        "stage.model.cons": (mean("stage.model.cons", builds), "count"),
        "stage.model.nnz": (mean("stage.model.nnz", builds), "count"),
        "engine.assemble_inputs.calls": (calls["engine.assemble_inputs"], "count"),
        "engine.assemble_inputs.s": (total["engine.assemble_inputs"], "s"),
        "engine.advance_state.calls": (calls["engine.advance_state"], "count"),
        "engine.advance_state.s": (total["engine.advance_state"], "s"),
        "core.check_state.s": (total["core.check_state"], "s"),
        "engine.run.self_s": (own["engine.run"], "s"),
        "offline.build_offline.s": (total["offline.build_offline"], "s"),
        "offline.solve_offline.s": (total["offline.solve_offline"], "s"),
        "offline.model.vars": (mean("offline.model.vars", offline_builds), "count"),
        "offline.model.cons": (mean("offline.model.cons", offline_builds), "count"),
        "offline.model.nnz": (mean("offline.model.nnz", offline_builds), "count"),
        "traces.synthetic_jobs.s": (total["traces.synthetic_jobs"], "s"),
        "traces.sample_arrivals.s": (total["traces.sample_arrivals"], "s"),
        "signals.capacity_walk.s": (total["signals.capacity_walk"], "s"),
        "signals.noisy_forecast.s": (total["signals.noisy_forecast"], "s"),
        "config.load_config.s": (total["config.load_config"], "s"),
        "cli.cells": (len(cell_walls), "count"),
        "cli.cell_s.p50": (statistics.median(cell_walls) if cell_walls else 0.0, "s"),
        "cli.pool_efficiency": (
            sum(cell_walls) / (out.workers * out.loop_walls[0]) if cell_walls else 0.0, "ratio"),
        "metrics.s": (total["metrics"], "s"),
        # the second half of the loops is traced, the first is not; both do the same work
        "trace.overhead_s": (sum(walls[half:]) - sum(walls[:half]), "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dcsched" / "__init__.py").is_file():
        print(f"error: no dcsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Recorder

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    context = machine_context()
    try:
        if args.trace:
            recorder = Recorder(tag)
            out = workload.measure(args.seed, workdir / "run", recorder)
            layer = per_layer(out, recorder)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            trace = {"context": context, "spans": recorder.spans,
                     "counts": dict(recorder.counts), "maxima": recorder.maxima}
            OUT.mkdir(parents=True, exist_ok=True)
            (OUT / f"spans-{tag}.json").write_text(json.dumps(trace))
        else:
            before, after = SETUP_PROBES
            setup_times = measure_setup(args.workload, args.seed, workdir / "probe", before)
            out = workload.measure(args.seed, workdir / "run")
            setup_times += measure_setup(args.workload, args.seed, workdir / "probe", after)
            values = end_to_end(out, setup_times)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            _, pct, n = tail(out.latencies)
            emit(f"# stage_tail_ms is p{pct:.2f} of {n} stage samples ({min(n, 10)} beyond)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = out.failed == 0
    emit("# context " + json.dumps(context))
    emit("# loop: closed (each hourly decision waits for the previous one); "
         f"{out.stages} decisions in {len(out.loop_walls)} runs")
    for problem in out.problems:
        emit(f"# FAILED CHECK: {problem}")
    for key, entry in metrics.items():
        emit(f"# {key} = {entry['value']:.6g} {entry['unit']}")
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(result, context=context)))
    emit(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
