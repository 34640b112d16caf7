"""End-to-end iteration/epoch time simulation.

The simulator composes three calibrated cost terms per iteration:

* **compute** — per-sample backprop time from the network's measured
  single-K80 throughput, corrected for per-GPU batch size (small
  batches amortize kernels worse) and GPU architecture;
* **quantize** — encode/decode kernel work from the cost model's
  element/group/launch counts;
* **communicate** — wire time from the byte-exact payload sizes under
  the machine's MPI shared-bus or NCCL ring model.

On the MPI path quantization overlaps communication via CNTK's double
buffering (Section 3.2.1), so the exchange costs ``max(comm, quant)``
plus a pipeline fill/drain residue of the smaller term; on the
simulated-NCCL path quantization precedes the allreduce call and the
two serialize (Section 4.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..models.specs import NetworkSpec, get_network
from .costmodel import NetworkCostModel, cached_cost_model
from .machine import MachineSpec, get_machine

__all__ = [
    "SimulationResult",
    "simulate",
    "simulate_spec",
    "compute_seconds_per_iteration",
]

#: per-GPU batch at or below which the paper's VGG small-batch
#: anomaly applies (Section 5.2, "Super-Linear Scaling")
SMALLBATCH_LIMIT = 16

#: fraction of the smaller of (comm, quantize) NOT hidden by CNTK's
#: double buffering on the MPI path (pipeline fill/drain)
MPI_OVERLAP_RESIDUE = 0.5


@dataclass(frozen=True)
class SimulationResult:
    """One cell of the performance study."""

    network: str
    machine: str
    scheme: str
    exchange: str
    world_size: int
    global_batch: int
    compute_seconds: float
    quantize_seconds: float
    comm_seconds: float
    #: the exchange term after overlap: ``max(comm, quant) + residue``
    #: on MPI, ``comm + quant`` on NCCL
    exchange_seconds: float

    @property
    def iteration_seconds(self) -> float:
        return self.compute_seconds + self.exchange_seconds

    @property
    def samples_per_second(self) -> float:
        return self.global_batch / self.iteration_seconds

    def epoch_seconds(self, samples_per_epoch: int) -> float:
        iterations = math.ceil(samples_per_epoch / self.global_batch)
        return iterations * self.iteration_seconds

    @property
    def comm_fraction(self) -> float:
        """Share of the iteration spent on the wire (Figures 6-9 split)."""
        return self.comm_seconds / self.iteration_seconds


def compute_seconds_per_iteration(
    network: NetworkSpec, machine: MachineSpec, world_size: int
) -> tuple[float, int]:
    """Per-iteration compute time and the global batch size used."""
    global_batch = network.batch_size_for(world_size)
    per_gpu = max(global_batch // world_size, 1)
    reference = network.batch_sizes[1]
    c = machine.gpu.batch_overhead_samples
    base = 1.0 / network.k80_samples_per_second
    efficiency = (1.0 + c / per_gpu) / (1.0 + c / reference)
    per_sample = base * efficiency / machine.gpu.compute_scale
    if (
        network.smallbatch_speedup > 1.0
        and per_gpu <= SMALLBATCH_LIMIT < reference
    ):
        per_sample /= network.smallbatch_speedup
    return per_sample * per_gpu, global_batch


def _mpi_exchange(
    cost: NetworkCostModel, machine: MachineSpec, world_size: int
) -> tuple[float, float]:
    """(comm seconds, quantize seconds) for the MPI path."""
    payload = cost.total_range_bytes
    traffic = 2 * (world_size - 1) * payload
    bandwidth = machine.mpi_bus_bandwidth(world_size)
    comm = traffic / bandwidth
    # stock column-wise 1bitSGD ships its per-column scale arrays as
    # separate messages, doubling the per-matrix message overhead
    message_factor = 2 if cost.scheme == "1bit" else 1
    comm += (
        cost.matrix_count
        * world_size
        * machine.mpi_matrix_latency_s
        * message_factor
    )
    comm += machine.mpi_sync_seconds(world_size)
    # encode own ranges + decode owned range from K peers + requantize
    # the aggregate + decode the broadcast: ~3 full sweeps
    quant = cost.quant_work_units(3.0) / machine.gpu.quant_elements_per_second
    return comm, quant


def _nccl_exchange(
    cost: NetworkCostModel, machine: MachineSpec, world_size: int
) -> tuple[float, float]:
    """(comm seconds, quantize seconds) for the (simulated) NCCL path."""
    payload = cost.total_whole_bytes
    ring_bytes = 2 * (world_size - 1) / world_size * payload
    comm = ring_bytes / machine.nccl_link_bandwidth()
    comm += cost.matrix_count * machine.nccl_matrix_latency_s
    # quantization on the NCCL path skips per-range staging, so its
    # effective rate is higher than the MPI path's
    quant = (
        cost.quant_work_units(2.0)
        / machine.gpu.quant_elements_per_second
        * machine.nccl_quant_speedup
    )
    return comm, quant


def simulate(
    network: str,
    machine: str,
    scheme: str,
    exchange: str,
    world_size: int,
    bucket_size: int | None = None,
) -> SimulationResult:
    """Simulate one (network, machine, scheme, primitive, K) cell.

    Raises ``ValueError`` for cells the paper could not run either
    (e.g. NCCL beyond 8 GPUs, or GPU counts a machine does not have).
    """
    cost = (
        cached_cost_model(network, scheme, world_size, bucket_size)
        if world_size > 1
        else None
    )
    return simulate_spec(
        get_network(network), machine, scheme, exchange, world_size, cost
    )


def simulate_spec(
    net: NetworkSpec,
    machine: str,
    scheme: str,
    exchange: str,
    world_size: int,
    cost: NetworkCostModel | None = None,
) -> SimulationResult:
    """Simulate an arbitrary :class:`NetworkSpec` (e.g. a dummy model).

    ``cost`` may be supplied to reuse a prebuilt cost model; otherwise
    one is constructed for the spec.
    """
    mach = get_machine(machine)
    if not mach.supports(world_size, exchange):
        raise ValueError(
            f"{machine} does not support {world_size} GPUs over {exchange}"
        )

    compute, global_batch = compute_seconds_per_iteration(
        net, mach, world_size
    )

    if world_size == 1:
        comm = quant = 0.0
        exchange_time = 0.0
    else:
        if cost is None:
            cost = NetworkCostModel(net, scheme, world_size)
        if exchange == "mpi":
            comm, quant = _mpi_exchange(cost, mach, world_size)
            # double buffering overlaps quantization with sending,
            # minus a pipeline fill/drain residue
            exchange_time = max(comm, quant) + MPI_OVERLAP_RESIDUE * min(
                comm, quant
            )
        elif exchange == "nccl":
            comm, quant = _nccl_exchange(cost, mach, world_size)
            if scheme == "32bit":
                quant = 0.0
            # simulated low-precision NCCL quantizes, then allreduces
            exchange_time = comm + quant
        else:
            raise ValueError(
                f"unknown exchange {exchange!r}; expected 'mpi' or 'nccl'"
            )

    return SimulationResult(
        network=net.name,
        machine=machine,
        scheme=scheme,
        exchange=exchange,
        world_size=world_size,
        global_batch=global_batch,
        compute_seconds=compute,
        quantize_seconds=quant,
        comm_seconds=comm,
        exchange_seconds=exchange_time,
    )
