import pytest

import dcsched.milp


@pytest.fixture
def highs_calls(monkeypatch):
    """Record "LP" for each HiGHS call made through the binding
    `dcsched.milp._highs_lp` and "MILP" for each made through
    `dcsched.milp._scipy_milp`, in order."""
    calls = []
    for name, kind in (("_highs_lp", "LP"), ("_scipy_milp", "MILP")):
        highs = getattr(dcsched.milp, name)

        def counted(*args, highs=highs, kind=kind, **kwargs):
            calls.append(kind)
            return highs(*args, **kwargs)

        monkeypatch.setattr(dcsched.milp, name, counted)
    return calls
