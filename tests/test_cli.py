import csv
import os

import pytest

import dcsched.cli
import dcsched.engine
import dcsched.milp
from dcsched.cli import main
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
    lines = open(os.path.join(out, "summary.csv")).read().strip().splitlines()
    assert lines[0].startswith("profile,lambda_ce")
    assert len(lines) == 2  # one sweep cell
    manifest = next(f for f in files if f.endswith("_manifest.txt"))
    text = open(os.path.join(out, manifest)).read()
    assert "config_sha256" in text
    assert "stages 24" in text


def test_run_is_deterministic(tmp_path):
    path, out = tiny_config(tmp_path)
    assert main(["run", path]) == 0
    first = open(os.path.join(out, "summary.csv")).read()
    assert main(["run", path]) == 0
    assert open(os.path.join(out, "summary.csv")).read() == first


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
    # the offline bound solves in the CLI's own process, where HiGHS's stray
    # lines would reach fd 1; stdout must carry only the CLI's own lines
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


def test_overload_cell_takes_the_rare_paths(tmp_path, monkeypatch):
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

    # fork-started pool workers inherit the patches
    monkeypatch.setattr(dcsched.milp, "_scipy_milp", logged)
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
