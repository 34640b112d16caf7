"""Multi-node network fabric simulation.

Extends the single-machine cost models with declarative Clos/leaf-spine
topologies, compiled collective schedules (ring / tree / butterfly /
hierarchical) sized by the quantizers' actual wire bytes, and an
event-driven per-link simulator with FIFO queueing, contention, and
deterministic link-failure injection wired into the resilience loop's
topology-change path.
"""

from .crossval import fabric_cross_validate
from .schedule import (
    PATTERN_NAMES,
    CollectiveSchedule,
    Transfer,
    compile_collective,
    encoded_chunk_bytes,
    schedule_for,
    verify_allreduce,
)
from .select import CollectiveChoice, select_collective
from .simulate import (
    FabricSimResult,
    LinkFault,
    LinkOccupancy,
    run_collective,
    simulate_schedule,
)
from .topology import (
    LINK_CLASSES,
    TOPOLOGY_NAMES,
    FabricTopology,
    Link,
    LinkClass,
    fat_tree,
    leaf_spine,
    make_topology,
    single_node,
)
from .trace import fabric_chrome_trace, write_fabric_trace

__all__ = [
    "LINK_CLASSES",
    "PATTERN_NAMES",
    "TOPOLOGY_NAMES",
    "CollectiveChoice",
    "CollectiveSchedule",
    "FabricSimResult",
    "FabricTopology",
    "Link",
    "LinkClass",
    "LinkFault",
    "LinkOccupancy",
    "Transfer",
    "compile_collective",
    "encoded_chunk_bytes",
    "fabric_chrome_trace",
    "fabric_cross_validate",
    "fat_tree",
    "leaf_spine",
    "make_topology",
    "run_collective",
    "schedule_for",
    "select_collective",
    "simulate_schedule",
    "single_node",
    "verify_allreduce",
    "write_fabric_trace",
]
