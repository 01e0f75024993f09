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
from dcsched.core import DCConfig, JobClass, SystemState
from test_milp import dense_model
from test_stage import make_inputs

WRAPPED = {
    dcsched.milp: ["_scipy_milp", "solve"],
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

    model = dense_model([1.0], [([2.0], "<=", 7)])
    assert model.variables[0].kind == "integer"
    assert model.constraints[0].coeffs == {0: 2.0}

    # a fractional relaxation takes two runs of the one binding, the LP and
    # the MILP
    assert dcsched.stage.solve(model).value(0) == 3
    assert highs_calls == ["LP", "MILP"]


def test_model_size_view_of_a_fleet_stage():
    # perfbench counts model size through these views: a steady stage of
    # 60 job classes with a 24-hour window
    classes = [JobClass(k, l) for k in (1, 2, 4, 8, 16) for l in range(1, 13)]
    inputs = make_inputs(SystemState(stage=1), classes, capacity=20000, t_h=24,
                         cfg=DCConfig(20000, 100.0, 30.0))
    model, _ = dcsched.stage.build_stage(inputs)
    assert len(model.variables) == 1476
    assert sum(v.kind == "integer" for v in model.variables) == 1475
    assert len(model.constraints) == 1583
    assert sum(len(c.coeffs) for c in model.constraints) == 28907
