import pytest

import dcsched.milp


@pytest.fixture
def highs_calls(monkeypatch):
    """Record "LP" or "MILP" for each HiGHS call made through the binding
    `dcsched.milp._scipy_milp`, in order."""
    calls = []
    highs = dcsched.milp._scipy_milp

    def counted(*args, **kwargs):
        calls.append("MILP" if kwargs["integrality"].any() else "LP")
        return highs(*args, **kwargs)

    monkeypatch.setattr(dcsched.milp, "_scipy_milp", counted)
    return calls
