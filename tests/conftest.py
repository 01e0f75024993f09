import contextlib
import dataclasses

import numpy as np
import pytest

import dcsched.milp
from dcsched.core import SystemState
from dcsched.stage import build_stage


def state_of(stage, classes, running=None, queued=None, completed=None, arrived=None):
    """The array state at hour `stage` over `classes` that the dict tables
    a test writes give: `running` maps (class, start hour) to a count, the
    others map a class to one; what they leave out is 0."""
    state = SystemState.empty(stage, tuple(classes))
    for (c, t_b), num in (running or {}).items():
        assert 1 <= stage - t_b <= state.running.shape[1], (c, t_b)
        state.running[state.classes.index(c), stage - t_b - 1] = num
    for table, counts in ((state.n_queued, queued), (state.n_completed, completed),
                          (state.n_arrived, arrived)):
        for c, num in (counts or {}).items():
            table[state.classes.index(c)] = num
    return state


def running_of(state):
    """The state's running jobs as (class, start hour) -> count, for the
    nonzero cells."""
    return {(state.classes[i], state.stage - a - 1): int(state.running[i, a])
            for i, a in np.argwhere(state.running).tolist()}


def stage_models(inputs):
    """The stage model of `inputs` as `build_stage` returns it, its
    clearance slack closed, then the same model with the slack of each class
    with a clearance rule opened, as `solve_stage` re-solves an infeasible
    stage: two (model, handles) pairs, which share the matrix object."""
    model, h = build_stage(inputs)
    ub = model.ub.copy()
    ub[h.peak + 1:] = np.where(inputs.bounds.k > 0, np.inf, 0.0)
    return [(model, h), (dataclasses.replace(model, ub=ub), h)]


@contextlib.contextmanager
def fresh_highs():
    """Run the relaxations of the block in a new HiGHS object, then put
    back the one this thread kept before it."""
    kept = getattr(dcsched.milp._kept, "highs", None)
    dcsched.milp._kept.highs = None
    try:
        yield
    finally:
        dcsched.milp._kept.highs = kept


def drop_kept_highs(monkeypatch):
    """Drop this thread's kept relaxation object for the rest of the test,
    so that the next relaxation runs in an object of `dcsched.milp._Highs`
    as the test has patched it; the kept one comes back after the test."""
    monkeypatch.setattr(dcsched.milp._kept, "highs", None, raising=False)


@pytest.fixture
def highs_calls(monkeypatch):
    """Record each HiGHS run made through the binding
    `dcsched.milp._scipy_milp`, in order: "MILP" when the model it is given
    has an integer column, "LP" otherwise."""
    calls = []
    highs = dcsched.milp._scipy_milp

    def counted(model, *args, **kwargs):
        calls.append("MILP" if model.integer.any() else "LP")
        return highs(model, *args, **kwargs)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", counted)
    return calls


@pytest.fixture
def lp_iterations(monkeypatch):
    """Record each relaxation (a model with no integer column) run through
    `dcsched.milp._scipy_milp`, in order, as (given a starting basis, its
    simplex iterations)."""
    runs = []
    highs = dcsched.milp._scipy_milp

    def counted(model, time_limit, gap_tol, basis=None, start=None):
        run = highs(model, time_limit, gap_tol, basis, start=start)
        if not model.integer.any():
            runs.append((basis is not None, run.getInfo().simplex_iteration_count))
        return run

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", counted)
    return runs


@pytest.fixture
def given_starts(monkeypatch):
    """Record the starting solution each HiGHS run made through
    `dcsched.milp._scipy_milp` was given (None for none), in order."""
    given = []
    highs = dcsched.milp._scipy_milp

    def recorded(model, *args, start=None, **kwargs):
        given.append(None if start is None else start.copy())
        return highs(model, *args, start=start, **kwargs)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", recorded)
    return given


@pytest.fixture
def first_incumbent(monkeypatch):
    """A function that makes HiGHS runs stop branch-and-bound at their first
    improving solution, as a limit stops one holding an incumbent: the runs
    whose indices it is given, counted from 0 in the order the test makes
    them, or every run when it is given none. It returns the runs made, in
    order."""
    runs = []

    def stop(*which):
        class FirstIncumbent(dcsched.milp._Highs):
            def run(self):
                if not which or len(runs) in which:
                    self.setOptionValue("mip_max_improving_sols", 1)
                runs.append(self)
                return super().run()

        monkeypatch.setattr(dcsched.milp, "_Highs", FirstIncumbent)
        drop_kept_highs(monkeypatch)
        return runs

    return stop
