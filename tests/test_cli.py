import csv
import logging
import os
from concurrent.futures import Future
from pathlib import Path

import pytest

import dcsched.cli
import dcsched.config
import dcsched.core
import dcsched.engine
import dcsched.milp
import dcsched.stage
import dcsched.traces
from dcsched.cli import main
from dcsched.config import load_config
from dcsched.core import DomainError
from dcsched.stage import StageError

TINY = """\
dc:
  total_servers: 50
  p_peak_mw: 10.0
  p_idle_mw: 3.0
signals:
  hours: 24
profiles:
  jobs: 40
  k_buckets: [1, 2]
  max_runtime_hours: 4
sweep:
  horizon_t: [4]
  seeds: [1]
solver:
  time_limit_s: 30
output_dir: {out}
"""


def tiny_config(tmp_path, **extra_lines):
    out = tmp_path / "results"
    text = TINY.format(out=out)
    for line in extra_lines.values():
        text += line
    path = tmp_path / "tiny.yaml"
    path.write_text(text)
    return str(path), str(out)


def test_validate_ok(tmp_path, capsys):
    path, _ = tiny_config(tmp_path)
    assert main(["validate", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_defaults_without_file(capsys):
    assert main(["validate"]) == 0
    assert main(["--desk-scale", "validate"]) == 0


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    for value in ("-1", "abc", "2.5"):
        path.write_text(f"dc:\n  total_servers: {value}\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: dc.total_servers: ")


def test_validate_refuses_more_hours_than_a_year_before_building_them(tmp_path, capsys,
                                                                       monkeypatch):
    # the check reads the value alone: no rule that builds arrays over the
    # run's hours is reached
    def unreached(*args, **kwargs):
        raise AssertionError("the hours were built")

    monkeypatch.setattr(dcsched.config, "sample_arrivals", unreached)
    path = tmp_path / "long.yaml"
    for hours in (8785, 100000):
        path.write_text(f"signals:\n  hours: {hours}\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: signals.hours: at most 8784 (a year), got {hours}\n")


def test_validate_refuses_oversized_job_profiles_before_drawing_them(tmp_path, capsys,
                                                                     monkeypatch):
    # each bound reads the value alone, before any command draws the jobs
    def unreached(*args, **kwargs):
        raise AssertionError("the jobs were drawn")

    monkeypatch.setattr(dcsched.cli, "synthetic_jobs", unreached)
    monkeypatch.setattr(dcsched.traces, "synthetic_jobs", unreached)
    path = tmp_path / "big.yaml"
    cases = [("jobs", 10_000_001, "at most 10000000"),
             ("jobs", 10**12, "at most 10000000"),
             ("max_runtime_hours", 8785, "at most 8784 (a year)"),
             ("max_runtime_hours", 10**9, "at most 8784 (a year)")]
    for key, value, bound in cases:
        path.write_text(f"profiles:\n  {key}: {value}\n")
        for command in ("validate", "run", "offline", "gen-signals"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == f"config error: profiles.{key}: {bound}, got {value}\n"
    # the bounds themselves pass
    path.write_text("profiles:\n  jobs: 10000000\n  max_runtime_hours: 8784\n")
    assert main(["validate", str(path)]) == 0


def test_validate_refuses_a_window_longer_than_a_week_before_building_a_stage(
        tmp_path, capsys, monkeypatch):
    # the stage matrix grows as the window's square; the bound reads the
    # value alone, before any command builds a stage
    def unreached(*args, **kwargs):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(dcsched.stage, "_stage_matrix", unreached)
    path = tmp_path / "wide.yaml"
    for horizon in (169, 10**6):
        path.write_text(f"sweep:\n  horizon_t: [24, {horizon}]\n")
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: sweep.horizon_t: at most 168 (a week), got {horizon}\n")
    path.write_text("sweep:\n  horizon_t: [168]\n")
    assert main(["validate", str(path)]) == 0


def test_a_pool_starts_at_most_one_worker_per_task(tmp_path, capsys, monkeypatch):
    made = []

    class InlinePool:
        """Runs each task in this process, starts none and records the
        workers it was asked for."""

        def __init__(self, max_workers, initializer=None):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(dcsched.cli, "ProcessPoolExecutor", InlinePool)
    path, out = tiny_config(tmp_path)
    text = Path(path).read_text().replace("time_limit_s: 30\n", "time_limit_s: 30\n  workers: 64\n")
    Path(path).write_text(text)
    assert main(["run", path]) == 0
    Path(path).write_text(text.replace("seeds: [1]", "seeds: [1, 2]"))
    assert main(["offline", path]) == 0
    assert main(["run", path]) == 0
    assert made == [1, 2, 2]
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_validate_refuses_more_workers_than_its_bound_before_starting_one(
        tmp_path, capsys, monkeypatch):
    def unreached(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(dcsched.cli, "ProcessPoolExecutor", unreached)
    path = tmp_path / "many.yaml"
    for workers in (65, 100000):
        path.write_text(f"solver:\n  workers: {workers}\n")
        for command in ("validate", "run", "offline"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: solver.workers: at most 64, got {workers}\n")
    path.write_text("solver:\n  workers: 64\n")
    assert main(["validate", str(path)]) == 0


def test_validate_missing_file(tmp_path, capsys):
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("dc: [\n")
    for path in ("/nonexistent/config.yaml", str(tmp_path), str(malformed)):
        assert main(["validate", path]) == 2
        assert "config error" in capsys.readouterr().err


def test_validate_reads_the_files_a_config_names(tmp_path, capsys):
    out = tmp_path / "results"
    missing = tmp_path / "missing.csv"
    nan_signal = tmp_path / "signal.csv"
    nan_signal.write_text("hour,value\n1,5\n2,nan\n")
    nan_trace = tmp_path / "trace.csv"
    nan_trace.write_text("job_id,servers,runtime_hours\nj1,1,nan\n")
    cases = [
        (f"signals:\n  capacity:\n    mode: csv\n    csv: {missing}\n",
         "signals.capacity.csv: ", "No such file"),
        (f"signals:\n  capacity:\n    mode: csv\n    csv: {nan_signal}\n",
         "signals.capacity.csv: ", "signal.csv:3: bad row"),
        (f"signals:\n  carbon:\n    source: csv\n    csv: {nan_signal}\n",
         "signals.carbon.csv: ", "signal.csv:3: bad row"),
        (f"profiles:\n  source: trace\n  trace_csv: {nan_trace}\n",
         "profiles.trace_csv: ", "trace.csv:2: bad row"),
    ]
    path = tmp_path / "files.yaml"
    for text, prefix, needle in cases:
        path.write_text(text + f"output_dir: {out}\n")
        for command in ("validate", "run"):
            assert main(["--desk-scale", command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: " + prefix) and needle in err
    assert not out.exists()


def test_signal_csv_must_cover_the_run(tmp_path, capsys):
    # a run reads the true capacity and carbon at every one of its hours
    path, out = tiny_config(tmp_path)
    config = (tmp_path / "tiny.yaml").read_text()
    signal = tmp_path / "signal.csv"
    for kind, section in (("capacity", "  capacity:\n    mode: csv\n"),
                          ("carbon", "  carbon:\n    source: csv\n")):
        text = config.replace("signals:\n", f"signals:\n{section}    csv: {signal}\n")
        (tmp_path / "tiny.yaml").write_text(text)
        signal.write_text("hour,value\n" + "".join(f"{t},50\n" for t in range(1, 13)))
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == (
                f"config error: signals.{kind}.csv: {kind} series covers 12 of 24 hours\n"
            )
        assert not os.path.exists(out)
        signal.write_text("hour,value\n" + "".join(f"{t},50\n" for t in range(1, 25)))
        assert main(["validate", path]) == 0
        assert "config ok" in capsys.readouterr().out


def test_run_tiny_sweep(tmp_path, capsys):
    path, out = tiny_config(tmp_path)
    assert main(["run", path]) == 0
    files = sorted(os.listdir(out))
    assert "summary.csv" in files
    assert any(f.endswith("_trajectory.csv") for f in files)
    assert any(f.endswith("_manifest.txt") for f in files)
    lines = Path(out, "summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("profile,lambda_ce")
    assert len(lines) == 2  # one sweep cell
    manifest = next(f for f in files if f.endswith("_manifest.txt"))
    text = Path(out, manifest).read_text()
    assert "config_sha256" in text
    assert "stages 24" in text
    # the solver by its own version, and the scipy that bundles it
    version = dcsched.milp._Highs().version()
    assert version.count(".") == 2
    assert f"\nsolver HiGHS {version} from scipy " in text


def csv_config(tmp_path, folder, carbon=50, capacity=40):
    """The tiny config, reading its true carbon and capacity from CSVs of
    constant values in `folder`, and writing to `folder`/results."""
    where = tmp_path / folder
    where.mkdir(exist_ok=True)
    for name, value in (("carbon", carbon), ("capacity", capacity)):
        (where / f"{name}.csv").write_text(
            "hour,value\n" + "".join(f"{t},{value}\n" for t in range(1, 25)))
    text = TINY.format(out=where / "results").replace("signals:\n", (
        f"signals:\n  carbon:\n    source: csv\n    csv: {where / 'carbon.csv'}\n"
        f"  capacity:\n    mode: csv\n    csv: {where / 'capacity.csv'}\n"))
    path = where / "tiny.yaml"
    path.write_text(text)
    return str(path), where


def test_config_hash_names_the_csv_bytes_not_their_paths(tmp_path):
    # byte-identical CSVs in two directories: byte-identical manifests
    manifests = []
    for folder in ("a", "b"):
        path, where = csv_config(tmp_path, folder)
        assert main(["run", path]) == 0
        (manifest,) = (where / "results").glob("*_manifest.txt")
        manifests.append(manifest.read_text())
    assert manifests[0] == manifests[1]
    assert str(tmp_path) not in manifests[0]


def test_config_hash_follows_a_csv_edited_in_place(tmp_path):
    path, where = csv_config(tmp_path, "a")
    first = dcsched.cli._experiment_sha256(load_config(path))
    for name, kwargs in (("carbon", {"carbon": 51}), ("capacity", {"capacity": 41})):
        csv_config(tmp_path, "a", **kwargs)
        assert dcsched.cli._experiment_sha256(load_config(path)) != first, name
        csv_config(tmp_path, "a")
        assert dcsched.cli._experiment_sha256(load_config(path)) == first
    # a CSV the run does not read is not part of the hash
    cfg = load_config(path)
    cfg["profiles"]["trace_csv"] = str(where / "carbon.csv")
    assert dcsched.cli._experiment_sha256(cfg) == first


def test_run_is_deterministic(tmp_path):
    path, out = tiny_config(tmp_path)
    assert main(["run", path]) == 0
    first = Path(out, "summary.csv").read_text()
    assert main(["run", path]) == 0
    assert Path(out, "summary.csv").read_text() == first


def test_trace_is_read_once_per_sweep(tmp_path, capfd):
    # one over-long job in the trace and two cells: the class mix is read
    # and reported once, not once per cell
    trace = tmp_path / "trace.csv"
    trace.write_text("job_id,servers,runtime_hours\n"
                     + "".join(f"j{i},{1 + i % 2},{1 + i % 4}\n" for i in range(30))
                     + "long,1,10\n")
    path = tmp_path / "trace.yaml"
    path.write_text(TINY.format(out=tmp_path / "results")
                    .replace("profiles:\n", f"profiles:\n  source: trace\n  trace_csv: {trace}\n")
                    .replace("seeds: [1]", "seeds: [1, 2]"))
    assert main(["run", str(path)]) == 0
    captured = capfd.readouterr()
    assert captured.out.splitlines() == [f"wrote 2 of 2 cells to {tmp_path}/results/summary.csv"]
    dropped = [line for line in captured.err.splitlines() if line.startswith("trace: dropped")]
    assert dropped == ["trace: dropped 1 over-long and 0 over-wide jobs"]


def test_manifests_hash_the_trace_once_per_sweep(tmp_path, monkeypatch):
    # three cells: the config check and the class mix read the trace, and
    # the manifests' experiment hash reads it once for the whole sweep, in
    # whichever process
    trace = tmp_path / "trace.csv"
    trace.write_text("job_id,servers,runtime_hours\n"
                     + "".join(f"j{i},{1 + i % 2},{1 + i % 4}\n" for i in range(30)))
    log = tmp_path / "reads.txt"
    read_bytes, builtin_open = Path.read_bytes, open

    def logged(what):
        def read(path, *args, **kwargs):
            if Path(path) == trace:
                with builtin_open(log, "a") as fh:
                    fh.write(what + "\n")
            return (read_bytes if what == "hash" else builtin_open)(path, *args, **kwargs)
        return read

    # fork-started pool workers inherit the patches
    monkeypatch.setattr(Path, "read_bytes", logged("hash"))
    monkeypatch.setattr(dcsched.core, "open", logged("rows"), raising=False)
    path = tmp_path / "trace.yaml"
    path.write_text(TINY.format(out=tmp_path / "results")
                    .replace("profiles:\n", f"profiles:\n  source: trace\n  trace_csv: {trace}\n")
                    .replace("seeds: [1]", "seeds: [1, 2, 3]"))
    assert main(["run", str(path)]) == 0
    assert log.read_text().splitlines() == ["rows", "rows", "hash"]
    manifests = sorted((tmp_path / "results").glob("*_manifest.txt"))
    assert len(manifests) == 3
    expected = f"config_sha256 {dcsched.cli._experiment_sha256(load_config(str(path)))}"
    for manifest in manifests:
        assert manifest.read_text().splitlines()[1] == expected


def test_worker_output_on_fd_1_goes_to_stderr(tmp_path, monkeypatch, capfd):
    # HiGHS writes stray lines straight to fd 1 from inside the pool
    # workers; the sweep's stdout must carry only the CLI's own lines
    engine_run = dcsched.cli.run

    def noisy_run(*args, **kwargs):
        os.write(1, f"stray line from {os.getpid()}\n".encode())
        return engine_run(*args, **kwargs)

    # fork-started pool workers inherit the patch
    monkeypatch.setattr(dcsched.cli, "run", noisy_run)
    path, out = tiny_config(tmp_path)
    assert main(["run", path]) == 0
    captured = capfd.readouterr()
    assert captured.out.splitlines() == [f"wrote 1 of 1 cells to {out}/summary.csv"]
    (line,) = [line for line in captured.err.splitlines() if line.startswith("stray line")]
    assert line != f"stray line from {os.getpid()}"


def test_offline_subcommand(tmp_path, capsys):
    path, out = tiny_config(tmp_path)
    assert main(["offline", path]) == 0
    assert os.path.exists(os.path.join(out, "offline_uniform_s1.csv"))
    assert "goodput" in capsys.readouterr().out


def test_offline_output_on_fd_1_goes_to_stderr(tmp_path, monkeypatch, capfd):
    # the offline bound solves in a pool worker, where HiGHS's stray lines
    # reach fd 1; stdout must carry only the CLI's own lines
    solve_offline = dcsched.cli.solve_offline

    def noisy_solve(*args, **kwargs):
        os.write(1, b"stray line\n")
        return solve_offline(*args, **kwargs)

    monkeypatch.setattr(dcsched.cli, "solve_offline", noisy_solve)
    path, out = tiny_config(tmp_path)
    assert main(["offline", path]) == 0
    captured = capfd.readouterr()
    (line,) = captured.out.splitlines()
    assert line.startswith("uniform seed 1: goodput ")
    assert line.endswith(f" server-hours -> {out}/offline_uniform_s1.csv")
    assert captured.err.splitlines() == ["stray line"]


@pytest.mark.parametrize("error", [RuntimeError("offline solve failed: error Time limit reached"),
                                   DomainError("injected invariant breach")],
                         ids=["RuntimeError", "DomainError"])
def test_offline_survives_a_failed_schedule(tmp_path, monkeypatch, capsys, error):
    # the first of two schedules fails in its worker: its error goes to
    # stderr, the other's line still prints, and the command exits 1
    path, out = tiny_config(tmp_path)
    Path(path).write_text(Path(path).read_text().replace("seeds: [1]", "seeds: [1, 2]"))
    cfg = load_config(path)
    failing = dcsched.traces.sample_arrivals(dcsched.cli._class_totals(cfg), "uniform", 24, 1)
    solve_offline = dcsched.cli.solve_offline

    def failing_solve(profile, *args, **kwargs):
        if profile == failing:
            raise error
        return solve_offline(profile, *args, **kwargs)

    # fork-started pool workers inherit the patch
    monkeypatch.setattr(dcsched.cli, "solve_offline", failing_solve)
    assert main(["offline", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: uniform seed 1: {type(error).__name__}: {error}"]
    (line,) = captured.out.splitlines()
    assert line.startswith("uniform seed 2: goodput ")
    assert not os.path.exists(os.path.join(out, "offline_uniform_s1.csv"))
    assert os.path.exists(os.path.join(out, "offline_uniform_s2.csv"))


def test_gen_signals(tmp_path, capsys):
    out = str(tmp_path / "results")
    cfg = tmp_path / "gen.yaml"
    cfg.write_text(
        "dc:\n  total_servers: 50\n"
        "signals:\n  hours: 24\n  capacity:\n    mode: walk\n"
        "profiles:\n  jobs: 40\n"
        "sweep:\n  forecast: [noisy_both]\n  seeds: [3]\n"
        f"output_dir: {out}\n"
    )
    assert main(["gen-signals", str(cfg)]) == 0
    files = sorted(os.listdir(out))
    assert "carbon.csv" in files
    assert "capacity_s3.csv" in files
    assert "carbon_forecast_s3.csv" in files
    assert "capacity_forecast_s3.csv" in files
    assert "profile_s3.csv" in files


def fail_seed_at_stage(monkeypatch, seed, stage, make_error):
    """Make every cell of one sweep seed raise `make_error()` in place of
    its stage solve at `stage`. Fork-started pool workers inherit both
    patches; each worker runs its cells one at a time, so the seed seen by
    the last arrival sampling is the seed of the running cell."""
    current = {}
    sample = dcsched.cli.sample_arrivals
    solve = dcsched.engine.solve_stage

    def recording_sample(totals, shape, hours, cell_seed):
        current["seed"] = cell_seed
        return sample(totals, shape, hours, cell_seed)

    def failing_solve(inputs, *args, **kwargs):
        if current["seed"] == seed and inputs.state.stage == stage:
            raise make_error()
        return solve(inputs, *args, **kwargs)

    monkeypatch.setattr(dcsched.cli, "sample_arrivals", recording_sample)
    monkeypatch.setattr(dcsched.engine, "solve_stage", failing_solve)


@pytest.mark.parametrize("make_error, reason", [
    (lambda: StageError(5, "injected solver failure"),
     "stage 5: StageError: injected solver failure"),
    (lambda: DomainError("injected invariant breach"),
     "stage 5: DomainError: injected invariant breach"),
], ids=["StageError", "DomainError"])
def test_failing_cell_keeps_the_rest_of_the_sweep(
    tmp_path, monkeypatch, capsys, make_error, reason
):
    fail_seed_at_stage(monkeypatch, seed=2, stage=5, make_error=make_error)
    failed_cell = "uniform_ce0_pd0_T4_accurate_s2"
    artefacts = {}
    for workers in (1, 2):
        out = tmp_path / f"results{workers}"
        path = tmp_path / f"workers{workers}.yaml"
        path.write_text(
            TINY.format(out=out)
            .replace("seeds: [1]", "seeds: [1, 2]")
            .replace("time_limit_s: 30\n", f"time_limit_s: 30\n  workers: {workers}\n")
        )
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {failed_cell}: {reason}" in err.splitlines()
        assert err.count("error: ") == 1
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["seed"] for row in rows] == ["1"]
        partial = out / f"{failed_cell}_trajectory.partial.csv"
        assert len(partial.read_text().splitlines()) == 1 + 4  # stages 1-4
        assert not (out / f"{failed_cell}_trajectory.csv").exists()
        artefacts[workers] = {f.name: f.read_text() for f in out.iterdir()}
    assert artefacts[1] == artefacts[2]


OVERLOAD = """\
dc:
  total_servers: 200
signals:
  hours: 48
  capacity: {{mode: walk, step_stddev_frac: 0.15, floor_frac: 0.3}}
profiles:
  jobs: 1000
  k_buckets: [1, 2, 4]
  max_runtime_hours: 8
  shapes: [large_var]
sweep:
  horizon_t: [3]
  seeds: [2]
output_dir: {out}
"""


def test_overload_cell_takes_the_rare_paths(tmp_path, monkeypatch, capfd):
    # a capacity walk that drops under the running jobs: the cell must
    # terminate jobs, relax clearance with slack and meet infeasible models
    log = tmp_path / "log.txt"
    engine_run = dcsched.cli.run

    highs = dcsched.milp._scipy_milp

    def logged(model, *args, **kwargs):
        run = highs(model, *args, **kwargs)
        with open(log, "a") as fh:
            kind = "MILP" if model.integer.any() else "LP"
            fh.write(f"{kind} {run.getModelStatus().name}\n")
        return run

    def conserving_run(dc, profile, classes, *args, **kwargs):
        traj = engine_run(dc, profile, classes, *args, **kwargs)
        state = traj.final_state
        running = state.running_by_class()
        for c, arrived in profile.totals().items():
            held = state.queued.get(c, 0) + running.get(c, 0) + state.completed.get(c, 0)
            assert held == arrived, (c, held, arrived)
        with open(log, "a") as fh:
            fh.write("conserved\n")
        return traj

    initializer = dcsched.cli._stdout_to_stderr

    def bare_logging_worker():
        # a worker logs as in a bare `dcsched run`: with no handler, so
        # logging's last resort writes to stderr; pytest's capture handler,
        # inherited by the fork, would otherwise keep any record from it
        initializer()
        logging.getLogger().handlers.clear()

    # fork-started pool workers inherit the patches
    monkeypatch.setattr(dcsched.milp, "_scipy_milp", logged)
    monkeypatch.setattr(dcsched.cli, "_stdout_to_stderr", bare_logging_worker)
    monkeypatch.setattr(dcsched.cli, "run", conserving_run)
    out = tmp_path / "results"
    path = tmp_path / "overload.yaml"
    path.write_text(OVERLOAD.format(out=out))
    assert main(["run", str(path)]) == 0

    cell = "large_var_ce0_pd0_T3_accurate_s2"
    with open(out / f"{cell}_trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48
    terminated = [row for row in rows if int(row["terminations"])]
    assert terminated
    for row in terminated:
        assert int(row["committed_before"]) > int(row["capacity"]), row["hour"]
    slack_events = sum(1 for row in rows if int(row["slack_jobs"]))
    assert slack_events > 0
    assert f"slack_events {slack_events}" in (out / f"{cell}_manifest.txt").read_text()
    # the slack is in the trajectory and the manifest; stderr is for errors
    assert "minimum clearance relaxed" not in capfd.readouterr().err

    lines = log.read_text().splitlines()
    assert lines[-1] == "conserved"
    calls = [line.split() for line in lines[:-1]]
    # an infeasible model is caught by its relaxation, never by a MILP call
    assert ["LP", "kInfeasible"] in calls
    assert not [kind for kind, status in calls if kind == "MILP" and status == "kInfeasible"]
    # some relaxations are integral and accepted, the rest are branched on
    fallbacks = sum(1 for kind, _ in calls if kind == "MILP")
    assert fallbacks > 0
    assert calls.count(["LP", "kOptimal"]) > fallbacks
