"""Writes the fabric golden traces.  Run ONCE, at the parent commit
(9934287, the last one before the event loop was rewritten):

    PYTHONPATH=src python tests/fabric/golden/make_golden.py

Every cell of the grid is one ``run_collective`` whose whole event
trace -- every field of every occupancy, in order, floats through
``float.hex`` -- is hashed into ``golden.json`` beside the makespan,
the completed / dropped counts, the topology changes and the survivors.
The fault of a cell is derived from that cell's own unfaulted run (the
busiest trunk, a third of the makespan) and stored with it, so the
replay in ``test_golden.py`` reads the faults, never re-derives them.
``chrome_trace.json`` is ``write_fabric_trace`` of one partitioned cell, byte
for byte.
"""
import hashlib
import json
import sys
from pathlib import Path

from repro.fabric import (
    PATTERN_NAMES,
    LinkFault,
    make_topology,
    run_collective,
    write_fabric_trace,
)

HERE = Path(__file__).resolve().parent
ELEMENTS = 200_000
SCHEMES = ("32bit", "qsgd4", "1bit")
_CLOS = {"gpus_per_host": 4, "hosts_per_leaf": 2, "spines": 2}
TOPOLOGIES = {
    "pcie-K4": ("pcie", 4, {}),
    "fat-tree-K16": ("fat-tree", 16, _CLOS),
    "leaf-spine-K32-os3": ("leaf-spine", 32, {**_CLOS, "oversubscription": 3.0}),
    "leaf-spine-K24": (
        "leaf-spine", 24, {"gpus_per_host": 4, "hosts_per_leaf": 3, "spines": 3},
    ),
}
#: the cell whose Chrome trace is kept whole
TRACE_CELL = "fat-tree-K16/tree/qsgd4/uplink-cut"


def build(topology: str):
    name, world_size, kwargs = TOPOLOGIES[topology]
    return make_topology(name, world_size, **kwargs)


def faults_of(spec: dict) -> tuple[LinkFault, ...]:
    return tuple(LinkFault(*fault) for fault in spec["faults"])


def run(spec: dict):
    return run_collective(
        build(spec["topology"]), spec["pattern"], ELEMENTS,
        scheme=spec["scheme"], faults=faults_of(spec), step=7,
    )


def summary(result) -> dict:
    """Everything the replay must reproduce, floats as ``float.hex``."""
    sha = hashlib.sha256()
    for occ in result.occupancies:
        sha.update(
            "|".join((
                occ.link[0], occ.link[1], occ.link_class, str(occ.transfer),
                occ.op, occ.start_s.hex(), occ.end_s.hex(), str(occ.nbytes),
            )).encode() + b"\n"
        )
    return {
        "occupancies": len(result.occupancies),
        "sha256": sha.hexdigest(),
        "makespan": result.makespan_seconds.hex(),
        "completed": result.completed_transfers,
        "dropped": result.dropped_transfers,
        "topology_changes": [c.to_dict() for c in result.topology_changes],
        "survivors": list(result.survivors),
    }


def fault_menu(topology, base) -> dict[str, list]:
    """Fault lists by name, sized from the unfaulted run ``base``."""
    third = base.makespan_seconds / 3
    if not topology.spines:
        # one box: the only links are GPU<->switch lanes
        return {
            "none": [],
            "flap": [["gpu1", "host0", third, 2 * third]],
            "uplink-cut": [["gpu2", "host0", third, None]],
        }
    trunks = [
        (link, busy) for link, busy in base.busiest_links(10_000)
        if topology.links[link].cls.name.startswith("trunk")
    ]
    (leaf, spine), _ = trunks[0]
    if leaf.startswith("spine"):
        leaf, spine = spine, leaf
    return {
        "none": [],
        "flap": [[leaf, spine, third, 2 * third]],
        # dies under traffic: transfers already routed over it restart
        "reroute": [[leaf, spine, third, None]],
        "uplink-cut": [["host1", topology.leaf_of_host["host1"], third, None]],
    }


def main() -> None:
    cells: dict[str, dict] = {}
    for name in TOPOLOGIES:
        topology = build(name)
        for pattern in PATTERN_NAMES:
            for scheme in SCHEMES:
                spec = {"topology": name, "pattern": pattern, "scheme": scheme}
                base = run({**spec, "faults": []})
                for fault, faults in fault_menu(topology, base).items():
                    cell = {**spec, "faults": faults}
                    result = run(cell)
                    key = f"{name}/{pattern}/{scheme}/{fault}"
                    cells[key] = {**cell, **summary(result)}
                    if key == TRACE_CELL:
                        write_fabric_trace(result, str(HERE / "chrome_trace.json"))
    rows = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(cell)}" for key, cell in cells.items()
    )
    (HERE / "golden.json").write_text("{\n" + rows + "\n}\n")
    print(f"{len(cells)} cells", file=sys.stderr)


if __name__ == "__main__":
    main()
