"""Every codec reproduces the checked-in wire format bit for bit.

``golden/golden.json`` was written by ``golden/make_golden.py`` under the
numpy reference backend at the last commit before the bucketed codecs
were rebuilt on one skeleton: one cell per codec x input, each pinned by
sha256 digests of every payload section, the decode, a decode-accumulate
onto a fixed target, the fused sum decoder and the error-feedback
residual.  The inputs cross group lengths 7 / 8 / 128 / 256, 32-bit word
edges, padded tail buckets, strided mpi column ranges, one-element and
all-zero buckets.  Each cell replays under every available backend, so
a kernel port, a codec rewrite or a numpy upgrade that moves one byte
fails here, naming the codec, the input and the section.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.quantization import SCHEME_NAMES, kernels

GOLDEN = Path(__file__).parent / "golden"
CELLS = json.loads((GOLDEN / "golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_golden", GOLDEN / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_grid_covers_every_scheme_and_input():
    assert sorted(CELLS) == sorted(make_golden.cell_keys())
    schemes = {scheme for scheme, _ in make_golden.CODECS.values()}
    assert set(SCHEME_NAMES) | {
        "aqsgd2", "aqsgd4", "topk0.01", "terngrad2.5"
    } <= schemes
    assert all(cell["alloc_equal"] for cell in CELLS.values())
    assert all(
        cell.get("accumulate_strided_equal", True) for cell in CELLS.values()
    )
    assert all(
        cell["nbytes"] == cell["encoded_nbytes"] for cell in CELLS.values()
    )


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("codec", sorted(make_golden.CODECS))
def test_codec_matches_the_golden_cells(codec, backend):
    with kernels.use_backend(backend):
        for input_key in make_golden.INPUTS:
            key = f"{codec}/{input_key}"
            got = json.loads(json.dumps(make_golden.summary(codec, input_key)))
            want = CELLS[key]
            for field in sorted(set(got) | set(want)):
                assert got.get(field) == want.get(field), (key, field)
