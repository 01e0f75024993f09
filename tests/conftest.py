import pytest

import dcsched.milp


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
    """Make every HiGHS run stop branch-and-bound at its first improving
    solution, as a limit stops it holding an incumbent; return the runs
    made, in order."""
    runs = []

    class FirstIncumbent(dcsched.milp._Highs):
        def run(self):
            runs.append(self)
            self.setOptionValue("mip_max_improving_sols", 1)
            return super().run()

    monkeypatch.setattr(dcsched.milp, "_Highs", FirstIncumbent)
    return runs
