"""Pins the decisions of three short closed loops, not only their models.

Each loop's digest covers every stage decision: the starts over the whole
window, the terminations, the active servers over the extended window, the
clearance slack, the realized peak, the status and the rounded gap. The
encoding is independent of how a decision stores them: sorted
(servers, runtime, hour, count) tuples, whichever layout the tables have.
The HiGHS runs of each loop are pinned by kind: a relaxation given a
starting basis, the previous hour's or the stage's greedy one ("LP hot"),
one started cold, which only a slack re-solve with no basis to start from
is ("LP cold"),
branch-and-bound given a starting incumbent, which is full branch-and-bound
after an uncertified neighbourhood ("MILP seeded"), and any other
branch-and-bound, the neighbourhood included ("MILP"). So are the simplex
iterations of every loop's hot relaxations.

The pins are tied to HiGHS 1.12.0 as scipy 1.17.1 bundles it: a change of
scipy re-pins them and says so. A change that moves a decision re-pins them
and lists every moved stage with its reason.
"""

import hashlib
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest

import dcsched.cli
import dcsched.engine
import dcsched.milp
from dcsched.config import load_config
from dcsched.core import DCConfig, HorizonConfig, ObjectiveWeights
from dcsched.engine import run
from dcsched.signals import constant_capacity, synthetic_carbon
from dcsched.traces import sample_arrivals, synthetic_jobs


def entries(table, classes, r):
    """The nonzero entries of a class x hour table as sorted
    (servers, runtime, hour, count) tuples: a mapping keyed (class, hour),
    or an array whose rows follow `classes` and whose column o is hour
    r + o."""
    if isinstance(table, Mapping):
        items = table.items()
    else:
        items = (((classes[i], r + o), n) for (i, o), n in np.ndenumerate(table))
    return sorted((c.servers, c.runtime, t, int(n)) for (c, t), n in items if n)


def encode(inputs, decision):
    """One stage decision in a form that does not depend on its layout."""
    classes, r = inputs.classes, inputs.state.stage
    active = decision.active
    active = [m for _, m in sorted(active.items())] if isinstance(active, Mapping) else active
    slack = decision.slack
    slack = slack.items() if isinstance(slack, Mapping) else zip(classes, slack)
    return (
        r,
        entries(decision.starts, classes, r),
        entries(decision.terminations, classes, r),
        [int(m) for m in active],
        sorted((c.servers, c.runtime, int(n)) for c, n in slack if n),
        f"{decision.peak:.12g}",
        decision.status,
        f"{decision.gap:.3g}",
    )


@pytest.fixture
def recorded(monkeypatch):
    """Each stage decision of the loops run in the test, encoded, and each
    HiGHS run by kind."""
    decisions, runs = [], Counter()
    solve_stage, highs = dcsched.engine.solve_stage, dcsched.milp._scipy_milp

    def decided(inputs, **kwargs):
        decision = solve_stage(inputs, **kwargs)
        decisions.append(encode(inputs, decision))
        return decision

    def counted(model, time_limit, gap_tol, basis=None, start=None):
        runs["MILP seeded" if start is not None else "MILP" if model.integer.any()
             else "LP cold" if basis is None else "LP hot"] += 1
        return highs(model, time_limit, gap_tol, basis, start=start)

    monkeypatch.setattr(dcsched.engine, "solve_stage", decided)
    monkeypatch.setattr(dcsched.milp, "_scipy_milp", counted)
    return decisions, runs


def digest(decisions):
    return hashlib.sha256(repr(decisions).encode()).hexdigest()


def run_cell(tmp_path, text):
    """Run the one cell of a sweep config in this process, as a pool worker
    of `dcsched run` runs it."""
    path = tmp_path / "cell.yaml"
    path.write_text(text.format(out=tmp_path / "out"))
    cfg = load_config(str(path))
    (cell,) = dcsched.cli._cells(cfg)
    (tmp_path / "out").mkdir()
    dcsched.cli._run_cell_or_raise(cfg, dcsched.cli._class_totals(cfg), cell, cfg["output_dir"])


# the desk grid's size and a peak charge: fractional relaxations, their
# neighbourhoods and full branch-and-bound
DESK_CELL = """\
dc: {{total_servers: 200}}
signals: {{hours: 24, capacity: {{mode: walk}}}}
profiles: {{jobs: 100, k_buckets: [1, 2, 4], max_runtime_hours: 8}}
sweep: {{lambda_ce: [0.1], lambda_pd: [5.0], horizon_t: [9], forecast: [noisy_both], seeds: [1]}}
output_dir: {out}
"""

# test_cli.py's overload cell: terminations, clearance slack and infeasible
# models
OVERLOAD_CELL = """\
dc: {{total_servers: 200}}
signals: {{hours: 48, capacity: {{mode: walk, step_stddev_frac: 0.15, floor_frac: 0.3}}}}
profiles: {{jobs: 1000, k_buckets: [1, 2, 4], max_runtime_hours: 8, shapes: [large_var]}}
sweep: {{horizon_t: [3], seeds: [2]}}
output_dir: {out}
"""


def test_desk_cell_decisions_are_pinned(recorded, tmp_path):
    decisions, runs = recorded
    run_cell(tmp_path, DESK_CELL)
    assert len(decisions) == 24
    assert dict(runs) == {"LP hot": 24, "MILP": 8, "MILP seeded": 7}
    assert digest(decisions) == (
        "655461e58c67c5fa28ef69f7d8c7559cab03502ae71339702c50b3689aace1c6"
    )


def test_overload_cell_decisions_are_pinned(recorded, tmp_path):
    decisions, runs = recorded
    run_cell(tmp_path, OVERLOAD_CELL)
    assert len(decisions) == 48
    # stages with terminations and stages with slack are among them
    assert any(terms for _, _, terms, *_ in decisions)
    assert any(slack for *_, slack, _, _, _ in decisions)
    assert dict(runs) == {"LP cold": 2, "LP hot": 57, "MILP": 26, "MILP seeded": 20}
    assert digest(decisions) == (
        "0cd94eefb407eeb78a50d5d4ddfac3fe5725d4387b148ace1fc9295550735255"
    )


def run_fleet(hours):
    """A fleet-shaped closed loop of `hours` hours: 60 classes on 20,000
    servers, a 24-hour window."""
    totals = synthetic_jobs(30000, (1, 2, 4, 8, 16), 12, seed=0)
    assert len(totals) == 60
    run(DCConfig(20000, 100.0, 30.0), sample_arrivals(totals, "small_var", hours, seed=5),
        tuple(sorted(totals)), constant_capacity(20000, hours), synthetic_carbon(hours),
        HorizonConfig(24, 24, 24), ObjectiveWeights(lambda_ce=0.1, lambda_pd=5.0))


def test_fleet_shaped_decisions_are_pinned(recorded):
    # 60 classes on 20,000 servers: the first relaxation starts from its
    # greedy basis, every later one from the basis of the hour before
    decisions, runs = recorded
    hours = 36
    run_fleet(hours)
    assert len(decisions) == hours
    assert dict(runs) == {"LP hot": 36}
    assert digest(decisions) == (
        "770d95efd1e48ebd82f5889f2bab5d9439c867c8c7e5d27f6884e3d23de75350"
    )


# The simplex iterations of the relaxations that start from a basis: the
# first stage's greedy one, then the basis of the hour before, moved one
# hour along the window. Started from that basis as it was, the desk cell's
# 23 later hours took 914 and the fleet loop's 35 took 1,760.


def test_desk_cell_hot_relaxation_iterations_are_pinned(lp_iterations, tmp_path):
    run_cell(tmp_path, DESK_CELL)
    hot = [n for given, n in lp_iterations if given]
    assert (len(hot), sum(hot)) == (24, 670)


def test_fleet_shaped_hot_relaxation_iterations_are_pinned(lp_iterations):
    run_fleet(36)
    hot = [n for given, n in lp_iterations if given]
    assert (len(hot), sum(hot)) == (36, 106)


def test_overload_cell_hot_relaxation_iterations_are_pinned(lp_iterations, tmp_path):
    # the one pinned loop whose hot relaxations include slack re-solves
    run_cell(tmp_path, OVERLOAD_CELL)
    hot = [n for given, n in lp_iterations if given]
    assert (len(hot), sum(hot)) == (57, 1122)
