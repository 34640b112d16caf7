"""Writes the exchange golden vectors.  Run ONCE, at the last commit
before the three collectives were rebuilt on one reduce loop and one
wire ledger, under the numpy reference backend:

    PYTHONPATH=src REPRO_KERNELS=numpy python tests/comm/golden/make_golden.py

A cell is one codec x one exchange x one world size x one input shape,
run as two consecutive ``exchange()`` calls on one stream key (so the
mpi path's broadcast residuals carry from the first call into the
second).  Its record pins, as sha256 digests: each call's aggregate,
each call's per-rank round-trip images (``decoded_local``; digested for
error-feedback codecs, the only ones whose images any caller reads),
the per-(src, dst) wire-byte sums and per-tag totals seen by a
recording counter sink (and the bytes charged to self-sends, which must
be none), ``exchange.state_dict()`` after both calls and the RNG state
they leave behind.  ``test_golden.py`` replays every cell
under every available kernel backend.
"""
import hashlib
import json
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.comm import make_exchange
from repro.quantization import SCHEME_NAMES, EncodeWorkspace, make_quantizer
from repro.telemetry.tracer import NullTracer

HERE = Path(__file__).resolve().parent

#: every registered scheme plus one example of each extension syntax
CODECS = SCHEME_NAMES + ("aqsgd4", "topk0.01", "terngrad2.5")

#: exchange key -> (make_exchange name, kwargs)
EXCHANGES = {
    "mpi": ("mpi", {"requantize_broadcast": True}),
    "mpi-norq": ("mpi", {"requantize_broadcast": False}),
    "nccl": ("nccl", {}),
    "alltoall": ("alltoall", {}),
}

WORLD_SIZES = (1, 3, 4)

#: a 1-D tensor shorter than K, a matrix whose 13 columns neither 3
#: nor 4 divides (and whose 520 elements cross a 512 bucket), a
#: conv-shaped tensor and a single element
SHAPES = {
    "short": (2,),
    "mat": (40, 13),
    "conv": (5, 2, 3, 3),
    "one": (1,),
}

KEY = "g"


def cell_keys() -> list[str]:
    return [
        f"{codec}/{exchange}/K{world}/{shape}"
        for codec in CODECS
        for exchange in EXCHANGES
        for world in WORLD_SIZES
        for shape in SHAPES
    ]


class RecordingSink:
    """Counter sink that keeps per-link and per-tag wire-byte sums."""

    def __init__(self):
        self.links = defaultdict(int)
        self.tags = defaultdict(int)

    def count_wire(self, src, dst, nbytes, tag=""):
        self.links[(src, dst)] += nbytes
        self.tags[tag] += nbytes

    def count_encode(self, nbytes, key=None):
        pass

    def count_decode(self, nbytes, key=None):
        pass


class _SinkTracer(NullTracer):
    def __init__(self, sink):
        self.counter_sink = sink


def _attach(exchange, sink) -> None:
    """Route the exchange's wire-byte records into ``sink``."""
    exchange.tracer = _SinkTracer(sink)


def _digest(arr) -> str:
    arr = np.asarray(arr)
    sha = hashlib.sha256(f"{arr.dtype.str}|{arr.shape}|".encode())
    sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


def _text_digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


def _state_digest(state: dict) -> str:
    sha = hashlib.sha256()
    for owner in sorted(state):
        for stream in sorted(state[owner]):
            sha.update(f"{owner}|{stream}|".encode())
            sha.update(_digest(state[owner][stream]).encode())
    return sha.hexdigest()


def rank_tensors(shape, world, rng) -> list[np.ndarray]:
    """One gradient per rank; magnitudes span three decades."""
    return [
        (
            rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 0, shape)
        ).astype(np.float32)
        for _ in range(world)
    ]


def summary(codec_key: str, exchange_key: str, world: int, shape_key: str):
    """Everything the replay must reproduce for one cell."""
    cell = f"{codec_key}/{exchange_key}/K{world}/{shape_key}"
    seed = zlib.crc32(cell.encode())
    data_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed + 1)
    codec = make_quantizer(codec_key)
    name, kwargs = EXCHANGES[exchange_key]
    exchange = make_exchange(name, world, **kwargs)
    sink = RecordingSink()
    _attach(exchange, sink)
    ws = EncodeWorkspace()
    record = {"aggregate": [], "decoded_local": []}
    for _ in range(2):
        tensors = rank_tensors(SHAPES[shape_key], world, data_rng)
        result = exchange.exchange(KEY, tensors, codec, rng, workspace=ws)
        record["aggregate"].append(_digest(result.aggregate))
        record["decoded_local"].append(
            [_digest(d) for d in result.decoded_local]
            if codec.requires_error_feedback
            else None
        )
    record["wire_total"] = sum(sink.links.values())
    record["links"] = _text_digest(sorted(
        [src, dst, nbytes] for (src, dst), nbytes in sink.links.items()
    ))
    record["self_sends"] = sum(
        nbytes for (src, dst), nbytes in sink.links.items() if src == dst
    )
    record["tags"] = dict(sorted(sink.tags.items()))
    record["state"] = _state_digest(exchange.state_dict())
    record["rng"] = _text_digest(rng.bit_generator.state)
    return record


def main() -> None:
    cells = {}
    for key in cell_keys():
        codec, exchange, world, shape = key.split("/")
        cells[key] = summary(codec, exchange, int(world[1:]), shape)
    lines = [
        f"{json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]  # one cell per line
    (HERE / "golden.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells")


if __name__ == "__main__":
    main()
