"""Receding-horizon mixed-integer scheduling for data-center load shifting."""

__version__ = "0.1.0"

from .core import (
    ArrivalProfile,
    DCConfig,
    DomainError,
    HorizonConfig,
    JobClass,
    ObjectiveWeights,
    StageDecision,
    SystemState,
    power_of,
)
from .engine import Trajectory, advance_state, assemble_inputs, run
from .offline import OfflineSchedule, build_offline, solve_offline
from .signals import SignalSeries, capacity_walk, noisy_forecast, synthetic_carbon
from .stage import StageInputs, build_stage, solve_stage, util_coeff

__all__ = [
    "ArrivalProfile",
    "DCConfig",
    "DomainError",
    "HorizonConfig",
    "JobClass",
    "ObjectiveWeights",
    "OfflineSchedule",
    "SignalSeries",
    "StageDecision",
    "StageInputs",
    "SystemState",
    "Trajectory",
    "advance_state",
    "assemble_inputs",
    "build_offline",
    "build_stage",
    "capacity_walk",
    "noisy_forecast",
    "power_of",
    "run",
    "solve_offline",
    "solve_stage",
    "synthetic_carbon",
    "util_coeff",
]
