"""Discrete-event simulator of the oversubscribed heterogeneous system."""

from .cost import (
    SPEC_MACHINE_PRICES,
    TRANSCODING_MACHINE_PRICES,
    cost_per_percent_robustness,
    default_prices_for,
    price_for_machine,
    total_cost,
)
from .engine import HCSimulator, SimulatorConfig, simulate
from .machine import Machine
from .mapping import (
    Assignment,
    MappingContext,
    MappingDecision,
    QueueDrop,
    TerminalEvent,
)
from .metrics import SimulationCounters, SimulationResult
from .state import SystemState
from .task import DropReason, Task, TaskStatus

__all__ = [
    "HCSimulator",
    "SimulatorConfig",
    "simulate",
    "Machine",
    "MappingContext",
    "MappingDecision",
    "Assignment",
    "QueueDrop",
    "TerminalEvent",
    "SimulationCounters",
    "SimulationResult",
    "SystemState",
    "Task",
    "TaskStatus",
    "DropReason",
    "SPEC_MACHINE_PRICES",
    "TRANSCODING_MACHINE_PRICES",
    "price_for_machine",
    "default_prices_for",
    "total_cost",
    "cost_per_percent_robustness",
]
