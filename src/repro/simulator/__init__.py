"""Performance simulator standing in for the EC2 / DGX-1 hardware."""

from .calibration import PAPER_MPI_TABLE, PAPER_NCCL_TABLE
from .costmodel import MatrixCost, NetworkCostModel, cached_cost_model
from .epoch import (
    SimulationResult,
    compute_seconds_per_iteration,
    simulate,
    simulate_spec,
)
from .machine import (
    MACHINES,
    GpuSpec,
    MachineSpec,
    cheapest_machine_for,
    get_machine,
)

__all__ = [
    "PAPER_MPI_TABLE",
    "PAPER_NCCL_TABLE",
    "MatrixCost",
    "NetworkCostModel",
    "cached_cost_model",
    "SimulationResult",
    "compute_seconds_per_iteration",
    "simulate",
    "simulate_spec",
    "MACHINES",
    "GpuSpec",
    "MachineSpec",
    "cheapest_machine_for",
    "get_machine",
]
