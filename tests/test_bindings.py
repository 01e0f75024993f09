"""The benchmark in perfbench/ measures each layer by wrapping dcsched's
module bindings from outside. A refactor that renames or bypasses one of
them would silently blind that per-layer view; this test fails instead."""

import dcsched.cli
import dcsched.engine
import dcsched.metrics
import dcsched.milp
import dcsched.offline
import dcsched.stage
import dcsched.traces
from dcsched.core import SystemState
from dcsched.milp import MilpModel

WRAPPED = {
    dcsched.milp: ["_highs_lp", "_scipy_milp", "solve"],
    dcsched.stage: ["solve", "build_stage", "validate_decision"],
    dcsched.engine: ["solve_stage", "check_state", "advance_state", "assemble_inputs", "run"],
    dcsched.offline: ["solve", "build_offline", "solve_offline"],
    dcsched.cli: ["main", "run", "summary_row", "load_config", "synthetic_jobs",
                  "sample_arrivals", "capacity_walk", "noisy_forecast"],
    dcsched.metrics: ["total_emissions", "peak_power", "goodput"],
    dcsched.traces: ["synthetic_jobs", "sample_arrivals"],
}


def test_perfbench_bindings_exist_and_carry_every_solver_call(highs_calls):
    for module, names in WRAPPED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # the stage and the offline model are solved through the one solve
    assert dcsched.stage.solve is dcsched.milp.solve
    assert dcsched.offline.solve is dcsched.milp.solve
    assert callable(SystemState.running_by_class)

    model = MilpModel()
    x = model.add_var("x", "integer", 0, None)
    model.add_constraint({x: 2.0}, "<=", 7, "odd")
    model.set_objective({x: 1.0})
    assert model.variables[x].kind == "integer"
    assert model.constraints[0].coeffs == {x: 2.0}

    # a fractional relaxation takes both solver calls, the LP and the MILP
    assert dcsched.stage.solve(model).value(x) == 3
    assert highs_calls == ["LP", "MILP"]
