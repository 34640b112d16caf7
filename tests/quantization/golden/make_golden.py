"""Writes the codec golden vectors.  Run ONCE, at the last commit before
the bucketed codecs (QSGD, TernGrad, Dettmers-8, Lloyd-Max QSGD) were
rebuilt on one shared skeleton, under the numpy reference backend:

    PYTHONPATH=src REPRO_KERNELS=numpy python tests/quantization/golden/make_golden.py

A cell is one codec on one input.  Its record pins the wire format and
every decode path as sha256 digests: each payload section (dtype, shape
and bytes), the decoded tensor, a decode-accumulate onto a fixed
non-zero target, the fused ``sum_decoder`` of two messages, and the
error-feedback residual left after one encode; plus the meta keys, the
wire size and the closed-form ``encoded_nbytes`` / ``group_count``.
``test_golden.py`` replays every cell under every available kernel
backend; a changed byte in any section of any cell fails there.
"""
import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

from repro.quantization import ErrorFeedback, EncodeWorkspace, make_quantizer

HERE = Path(__file__).resolve().parent

#: codec key -> (scheme name, make_quantizer kwargs): every SCHEME_NAMES
#: entry, the parameterized extensions, the QSGD grid / l2 variants and
#: bucket overrides that put group lengths on 7 / 8 / 128 / 256
CODECS = {
    "32bit": ("32bit", {}),
    "qsgd16": ("qsgd16", {}),
    "qsgd8": ("qsgd8", {}),
    "qsgd4": ("qsgd4", {}),
    "qsgd2": ("qsgd2", {}),
    "1bit*": ("1bit*", {}),
    "1bit": ("1bit", {}),
    "terngrad": ("terngrad", {}),
    "dettmers8": ("dettmers8", {}),
    "dettmers8c": ("dettmers8c", {}),
    "aqsgd2": ("aqsgd2", {}),
    "aqsgd4": ("aqsgd4", {}),
    "topk0.01": ("topk0.01", {}),
    "terngrad2.5": ("terngrad2.5", {}),
    "qsgd4-grid": ("qsgd4", {"variant": "grid"}),
    "qsgd8-l2": ("qsgd8", {"norm": "l2"}),
    "qsgd2-grid-l2": ("qsgd2", {"variant": "grid", "norm": "l2"}),
    "qsgd16-grid": ("qsgd16", {"variant": "grid"}),
    "qsgd4-b8": ("qsgd4", {"bucket_size": 8}),
    "qsgd4-b7": ("qsgd4", {"bucket_size": 7}),
    "qsgd8-b128": ("qsgd8", {"bucket_size": 128}),
    "qsgd2-b256-grid": ("qsgd2", {"bucket_size": 256, "variant": "grid"}),
    "1bit*-b8": ("1bit*", {"bucket_size": 8}),
    "1bit*-b256": ("1bit*", {"bucket_size": 256}),
    "terngrad-b128": ("terngrad", {"bucket_size": 128}),
    "terngrad2.5-b8": ("terngrad2.5", {"bucket_size": 8}),
    "dettmers8-b128": ("dettmers8", {"bucket_size": 128}),
    "aqsgd4-b8": ("aqsgd4", {"bucket_size": 8}),
}

#: input key -> (full shape, column slice or None, fill).  A slice
#: encodes ``full[:, lo:hi]`` -- the strided range the mpi exchange
#: ships -- and accumulates into the same strided range of the target.
INPUTS = {
    "one": ((1,), None, "normal"),
    "w31": ((31,), None, "normal"),
    "w33": ((33,), None, "normal"),
    "w65": ((65,), None, "normal"),
    "g7": ((7, 5), None, "normal"),
    "g8": ((8, 6), None, "normal"),
    "g9": ((9, 4), None, "normal"),
    "g128": ((128, 3), None, "normal"),
    "g129": ((129, 2), None, "normal"),
    "g256": ((256, 2), None, "normal"),
    "g257": ((257, 2), None, "normal"),
    "conv": ((3, 2, 2, 5), None, "normal"),
    "pad": ((40, 15), None, "normal"),
    "zero": ((16, 16), None, "zero"),
    "zero-bucket": ((64, 24), None, "zero-head"),
    "mpi": ((48, 20), (5, 13), "normal"),
    "mpi-last": ((33, 10), (7, 10), "normal"),
}


def cell_keys() -> list[str]:
    return [f"{codec}/{inp}" for codec in CODECS for inp in INPUTS]


def build(codec_key: str):
    scheme, kwargs = CODECS[codec_key]
    return make_quantizer(scheme, **kwargs)


def inputs(input_key: str, seed: int):
    """``(grad, target)``: the encoded tensor and the accumulate target.

    Magnitudes span four decades (Dettmers' dynamic tree), and exact
    zeros and negative zeros are planted (sign handling of empty codes).
    """
    shape, cols, fill = INPUTS[input_key]
    rng = np.random.default_rng(seed)
    full = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 0, shape)
    full = full.astype(np.float32)
    flat = full.reshape(-1)
    if flat.size > 4:
        flat[rng.integers(0, flat.size, 2)] = 0.0
        flat[rng.integers(0, flat.size, 2)] = -0.0
    if fill == "zero":
        full[...] = 0.0
    elif fill == "zero-head":
        full[:, :8] = 0.0  # the F-order flatten's first 512 entries
    target = rng.standard_normal(shape).astype(np.float32)
    if cols is None:
        return full, target
    lo, hi = cols
    return full[:, lo:hi], target[:, lo:hi]


def _digest(arr: np.ndarray) -> str:
    arr = np.asarray(arr)
    sha = hashlib.sha256(f"{arr.dtype.str}|{arr.shape}|".encode())
    sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


def _sections(message) -> dict:
    return {name: _digest(arr) for name, arr in message.payload.items()}


def summary(codec_key: str, input_key: str) -> dict:
    """Everything the replay must reproduce for one cell."""
    key = f"{codec_key}/{input_key}"
    seed = zlib.crc32(key.encode())
    codec = build(codec_key)
    grad, target = inputs(input_key, seed)
    ws = EncodeWorkspace()
    message = codec.encode_into(grad, np.random.default_rng(seed), ws)
    sections = _sections(message)
    record = {
        "scheme": message.scheme,
        "shape": list(message.shape),
        "meta": {k: v for k, v in sorted(message.meta.items())},
        "nbytes": message.nbytes,
        "encoded_nbytes": codec.encoded_nbytes(grad.shape),
        "group_count": codec.group_count(grad.shape),
        "payload": sections,
        # the allocating form must put the same bytes on the wire
        "alloc_equal": _sections(
            codec.encode(grad, np.random.default_rng(seed))
        ) == sections,
        "decode": _digest(codec.decode(message)),
    }
    acc = target.copy()
    codec.decode_into(message, acc, accumulate=True, workspace=ws)
    record["accumulate"] = _digest(acc)
    strided = target.copy()  # into the strided range of a wider buffer
    if strided.ndim == 2:
        wide = np.zeros((strided.shape[0], strided.shape[1] + 3), np.float32)
        wide[:, 1:-2] = strided
        codec.decode_into(message, wide[:, 1:-2], accumulate=True, workspace=ws)
        record["accumulate_strided_equal"] = bool(
            np.array_equal(wide[:, 1:-2], acc, equal_nan=True)
            and not np.any(wide[:, 0]) and not np.any(wide[:, -2:])
        )
    decoder = codec.sum_decoder(grad.shape, ws)
    for r in range(2):
        decoder.add(codec.encode_into(grad, np.random.default_rng(seed + r), ws))
    record["sum"] = _digest(decoder.result())
    feedback = ErrorFeedback()
    corrected = feedback.correct("k", grad, ws.array("ef.corrected", grad.shape))
    message = codec.encode_into(corrected, np.random.default_rng(seed), ws)
    decoded = codec.decode_into(message, ws.array("ef.decoded", grad.shape), workspace=ws)
    feedback.absorb("k", corrected, decoded)
    record["residual"] = _digest(feedback.residuals["k"])
    return record


def main() -> None:
    cells = {}
    for codec_key in CODECS:
        for input_key in INPUTS:
            cells[f"{codec_key}/{input_key}"] = summary(codec_key, input_key)
    lines = [
        f"{json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]  # one cell per line
    (HERE / "golden.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells")


if __name__ == "__main__":
    main()
