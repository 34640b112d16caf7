"""The event loop reproduces the parent commit's traces bit for bit.

``golden/golden.json`` was written by ``golden/make_golden.py`` at the
last commit before the loop was rewritten (records as tuples, routes
memoised, fault state tabulated): 180 cells with flaps, reroutes under
traffic and partitions, each pinned by a digest of every occupancy
field.  A change to the loop that moves one float in one hop of one
cell fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.fabric import write_fabric_trace

GOLDEN = Path(__file__).parent / "golden"
CELLS = json.loads((GOLDEN / "golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_golden", GOLDEN / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_grid_covers_every_fault_path():
    kinds = {key.rsplit("/", 1)[1] for key in CELLS}
    assert kinds == {"none", "flap", "reroute", "uplink-cut"}
    assert len(CELLS) == 180
    cut = [c for k, c in CELLS.items() if k.endswith("/uplink-cut")]
    assert all(c["topology_changes"] and c["dropped"] for c in cut)


@pytest.mark.parametrize("topology", sorted(make_golden.TOPOLOGIES))
def test_traces_match_the_parent_commit(topology):
    for key, cell in CELLS.items():
        if cell["topology"] != topology:
            continue
        got = make_golden.summary(make_golden.run(cell))
        want = {name: cell[name] for name in got}
        assert got == want, key


def test_chrome_trace_bytes_match_the_parent_commit(tmp_path):
    result = make_golden.run(CELLS[make_golden.TRACE_CELL])
    path = tmp_path / "chrome_trace.json"
    write_fabric_trace(result, str(path))
    assert path.read_bytes() == (GOLDEN / "chrome_trace.json").read_bytes()
