"""Every exchange reproduces the checked-in aggregates and wire ledger.

``golden/golden.json`` was written by ``golden/make_golden.py`` under the
numpy reference backend at the last commit before the mpi, nccl and
alltoall collectives were rebuilt on one reduce loop and one wire
ledger: one cell per codec x exchange x world size x input shape, each
run as two consecutive exchanges and pinned by sha256 digests of the
aggregates, the error-feedback round-trip images, the per-link and
per-tag wire bytes, the aggregator-side state and the RNG state left
behind.  Each cell replays under every available backend, so a change
that moves one byte, one transfer or one random draw fails here, naming
the cell and the field.  Self-sends are free: no cell's per-link sums
charge a ``(rank, rank)`` link.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.comm import EXCHANGE_NAMES
from repro.quantization import SCHEME_NAMES, kernels

GOLDEN = Path(__file__).parent / "golden"
CELLS = json.loads((GOLDEN / "golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_golden", GOLDEN / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_grid_covers_every_scheme_and_exchange():
    assert sorted(CELLS) == sorted(make_golden.cell_keys())
    assert set(SCHEME_NAMES) < set(make_golden.CODECS)
    assert {name for name, _ in make_golden.EXCHANGES.values()} == set(
        EXCHANGE_NAMES
    )
    for key, cell in CELLS.items():
        assert (cell["wire_total"] == 0) == ("/K1/" in key), key
        assert cell["self_sends"] == 0, key


def replay_cells(exchange: str, backend: str) -> None:
    """Replay every cell of ``exchange`` under ``backend``, field by field."""
    with kernels.use_backend(backend):
        for key in make_golden.cell_keys():
            codec, cell_exchange, world, shape = key.split("/")
            if cell_exchange != exchange:
                continue
            got = json.loads(json.dumps(
                make_golden.summary(codec, exchange, int(world[1:]), shape)
            ))
            want = CELLS[key]
            for field in sorted(set(got) | set(want)):
                assert got.get(field) == want.get(field), (key, field)


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("exchange", sorted(make_golden.EXCHANGES))
def test_exchange_matches_the_golden_cells(exchange, backend):
    replay_cells(exchange, backend)
