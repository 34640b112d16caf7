"""Pinned training digests of the cells that route codecs per layer or
feed quantization error back on either side of the wire.

Every cell is a seeded ``repro train`` run (``RunSpec.from_flat`` over
the ``train`` surface, so the flags below are the CLI's) whose
``History.digest()`` was computed under ``REPRO_KERNELS=numpy`` before
the per-layer codec table and the shared residual store existed.  They
are asserted under whichever kernel backend is active, which makes
them the end-to-end form of backend parity as well:

* the adaptive bit-width policy on nccl (K=4) and mpi (K=2);
* ``quantize_kinds=("fc",)`` -- no CLI flag, so set on the config --
  with 1bit over mpi (conv layers ship at full precision);
* ``topk0.01`` over mpi: the aggregator's re-quantized broadcast keeps
  its own residual (``1bit*`` over mpi is among the next group);
* the seven scheme x engine cells of the kernels CI job, with its
  ``--world-size 2 --epochs 2 --train-samples 64 --test-samples 32
  --batch-size 16 --seed 3`` arguments.
"""

from dataclasses import replace

import pytest

from repro.core.runspec import RunSpec

#: the kernels CI job's arguments, shared by every cell
CI_ARGS = dict(
    world_size=2, epochs=2, train_samples=64, test_samples=32,
    batch_size=16, seed=3,
)

#: cell id -> (flags over ``CI_ARGS``, config overrides, digest)
CELLS = {
    "adaptive-qsgd4-nccl-k4": (
        dict(scheme="qsgd4", exchange="nccl", world_size=4,
             policy="adaptive"),
        {},
        "28b008b5785c478237049c72bf1bccded48d9ee8e47e077200271405553a861e",
    ),
    "adaptive-qsgd4-mpi-k2": (
        dict(scheme="qsgd4", exchange="mpi", policy="adaptive"),
        {},
        "1de7a60a1d0f1f012820b33ec9cae0a67cec80144865396e5e1be108da0c68e1",
    ),
    "fc-only-1bit-mpi": (
        dict(scheme="1bit", exchange="mpi"),
        {"quantize_kinds": ("fc",)},
        "42419d87ca59737faa80ee6958cd373b64b49daada89bb50cf50260813342b2f",
    ),
    "topk0.01-mpi": (
        dict(scheme="topk0.01", exchange="mpi"),
        {},
        "7021cdb24e11e965316e60c95601f46815fb57a48bf44f6d08478de265427c63",
    ),
    **{
        f"ci-{scheme}-mpi-{engine}": (
            dict(scheme=scheme, exchange="mpi", engine=engine), {}, digest,
        )
        for (scheme, engine), digest in {
            ("qsgd4", "sequential"):
                "033b266fc9fbe38ac863fd24d44b19dfb9ea129a6d93606e6308bcbdc8cc792c",
            ("terngrad", "sequential"):
                "f4f4bb07102d6933732b0a0eb8f102bac5e4f7a02971484606f1042e7c0d3d61",
            ("dettmers8", "sequential"):
                "116cdd9705ec8f443d52d5337064dc380c6c49de7f9a27f9ff2f0ad2572e46cf",
            ("dettmers8c", "sequential"):
                "2d7f295d0bd417ea210b430824da6391eab955283e81564d6c8774b72652a12c",
            ("1bit", "sequential"):
                "4c85b0d677ed4d136d35770adf54fdaf60768bb1eca8690cab14d4244f408209",
            ("1bit*", "sequential"):
                "e142e2f632ec260be6a6ee925a62d68a21fb6f5c18f08930c8e2ce96fc43b023",
            ("1bit", "process"):
                "4c85b0d677ed4d136d35770adf54fdaf60768bb1eca8690cab14d4244f408209",
        }.items()
    },
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_reproduces_its_pinned_digest(cell):
    flags, overrides, digest = CELLS[cell]
    spec = RunSpec.from_flat({**CI_ARGS, **flags}, "train")
    spec = replace(spec, config=replace(spec.config, **overrides))
    assert spec.run().digest() == digest
