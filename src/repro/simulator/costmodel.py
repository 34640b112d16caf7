"""Per-matrix wire sizes and quantization work for the simulator.

Wire sizes are computed with the *real* codecs' ``encoded_nbytes`` —
the same byte-exact wire format the training path uses — including the
MPI path's range partitioning (each owner's column range is encoded as
its own message, so tiny ranges pay their own scale/header overhead,
exactly as in :class:`repro.comm.mpi.MpiReduceBroadcast`).

Quantization *work* is expressed in element-equivalents: processing
one value costs one unit; every quantization group (column or bucket)
adds ``GROUP_COST`` units for its reduction and scale handling; every
kernel launch adds ``LAUNCH_COST`` units.  Dividing by the GPU's
calibrated ``quant_elements_per_second`` yields seconds.  This is what
makes stock column-wise 1bitSGD slow on convolutional networks: a
60M-parameter ResNet152 has ~30M one-to-three-element columns, each
paying the group cost (paper Section 3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..comm.topology import partition_ranges
from ..models.specs import GradientMatrixSpec, NetworkSpec
from ..quantization import FullPrecision, QuantizationPolicy, make_quantizer

__all__ = [
    "MatrixCost",
    "NetworkCostModel",
    "GROUP_COST",
    "LAUNCH_COST",
]

#: extra element-equivalents of work per quantization group
GROUP_COST = 12.0
#: element-equivalents per kernel launch (two phases per matrix)
LAUNCH_COST = 20_000.0


@dataclass(frozen=True)
class MatrixCost:
    """Wire and work footprint of one gradient matrix under one codec."""

    spec: GradientMatrixSpec
    quantized: bool
    #: bytes of the whole matrix encoded as a single message (NCCL path)
    whole_bytes: int
    #: bytes summed over the K per-owner column-range messages (MPI path)
    range_bytes: int
    #: quantization groups over the whole matrix
    groups: int


class NetworkCostModel:
    """Footprints of every gradient matrix of one network under one codec."""

    def __init__(
        self,
        network: NetworkSpec,
        scheme: str,
        world_size: int,
        bucket_size: int | None = None,
        passthrough_coverage: float = 0.99,
    ):
        self.network = network
        self.scheme = scheme
        self.world_size = world_size
        self.codec = make_quantizer(scheme, bucket_size=bucket_size)
        # the training path's small-matrix passthrough rule
        self.policy = QuantizationPolicy.for_model(
            self.codec,
            [layer.size for layer in network.layers],
            passthrough_coverage,
        )
        self.matrices = [
            self._cost_matrix(layer) for layer in network.layers
        ]

    def _cost_matrix(self, layer: GradientMatrixSpec) -> MatrixCost:
        codec = self.policy.codec_for(layer.size)
        range_total = 0
        for lo, hi in partition_ranges(layer.cols, self.world_size):
            if hi > lo:
                range_total += codec.encoded_nbytes((layer.rows, hi - lo))
        return MatrixCost(
            spec=layer,
            quantized=not isinstance(codec, FullPrecision),
            whole_bytes=codec.encoded_nbytes(layer.shape),
            range_bytes=range_total,
            groups=codec.group_count(layer.shape),
        )

    # -- aggregates -------------------------------------------------------
    @property
    def total_elements(self) -> int:
        return self.network.parameter_count

    @property
    def total_whole_bytes(self) -> int:
        """Per-rank payload when each matrix is one message (NCCL)."""
        return sum(m.whole_bytes for m in self.matrices)

    @property
    def total_range_bytes(self) -> int:
        """Per-rank payload on the range-partitioned MPI path."""
        return sum(m.range_bytes for m in self.matrices)

    @property
    def total_groups(self) -> int:
        return sum(m.groups for m in self.matrices)

    @property
    def matrix_count(self) -> int:
        return len(self.matrices)

    @property
    def quantized_fraction(self) -> float:
        """Fraction of parameters travelling through the quantizer."""
        quantized = sum(m.spec.size for m in self.matrices if m.quantized)
        return quantized / max(self.total_elements, 1)

    @property
    def quantized_elements(self) -> int:
        """Parameters that actually travel through the quantizer."""
        return sum(m.spec.size for m in self.matrices if m.quantized)

    def quant_work_units(self, passes: float) -> float:
        """Element-equivalents for ``passes`` encode/decode sweeps."""
        per_pass = (
            self.quantized_elements
            + GROUP_COST * self.total_groups
            + LAUNCH_COST * sum(1 for m in self.matrices if m.quantized)
        )
        return passes * per_pass


@lru_cache(maxsize=256)
def cached_cost_model(
    network_name: str,
    scheme: str,
    world_size: int,
    bucket_size: int | None = None,
) -> NetworkCostModel:
    """Memoized cost models keyed by (network, scheme, K, bucket)."""
    from ..models.specs import get_network

    return NetworkCostModel(
        get_network(network_name), scheme, world_size, bucket_size
    )
