"""Cross-validate the fabric simulator against measured engines.

Large-K fabric sweeps are simulation-only, so they need an anchor in
reality: at K=4 (the largest world the live engines run comfortably)
a measured :class:`~repro.telemetry.export.PhaseBreakdown` is compared
against a prediction whose *communicate* term comes from the fabric's
event-driven link simulation of the same payload — the live model's
gradient elements, encoded by the same scheme, shipped over uplinks
paced at the same ``link_gbps`` the engine's exchange sleeps on.

Compute and quantize cannot be predicted by a network simulator, so
they are carried over from the measurement itself; the phase-share
comparison (the one :func:`~repro.telemetry.crossval.compare`, gated
by the shared
:data:`~repro.telemetry.crossval.DEFAULT_FRACTION_GAP_TOLERANCE`)
therefore isolates the fabric's communication prediction: a fabric
that mis-times the exchange shifts every share and fails the gate.

Unit note: a breakdown's phase seconds sum spans across *all* ranks,
so the fabric's per-collective makespan is scaled by ``world_size``
(and by the number of optimizer steps measured) into the same
aggregate rank-seconds before the shares are formed.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..telemetry.crossval import CrossValidation, compare
from ..telemetry.export import PhaseBreakdown
from .simulate import run_collective
from .topology import FabricTopology, Link, LinkClass, single_node

__all__ = ["fabric_cross_validate"]


def _paced_topology(world_size: int, link_gbps: float) -> FabricTopology:
    """Single-node star paced the way the engine paces its ranks.

    The live engine gives each rank one *upload* link at ``link_gbps``
    (:mod:`repro.runtime.link`); receiving is never paced.  So each
    GPU's uplink to the switch runs at that rate and the switch's
    downlinks are unconstrained — pacing them too would charge the
    fabric a second store-and-forward hop the measurement never has.
    """
    uplink = LinkClass("paced", link_gbps, 0.0)
    downlink = LinkClass("unpaced", math.inf, 0.0)
    base = single_node(world_size)
    return replace(
        base,
        links={
            key: Link(
                link.src,
                link.dst,
                uplink if link.src.startswith("gpu") else downlink,
            )
            for key, link in base.links.items()
        },
    )


def fabric_cross_validate(
    breakdown: PhaseBreakdown,
    *,
    scheme: str,
    pattern: str,
    world_size: int,
    total_elements: int,
    steps: int,
    link_gbps: float | None = None,
    topology: FabricTopology | None = None,
) -> CrossValidation:
    """Compare a measured breakdown against the fabric's prediction.

    Args:
        breakdown: phase seconds measured by the live tracer.
        scheme / pattern / world_size: the cell to simulate.
        total_elements: gradient elements of the *live* model (the
            payload the engine actually shipped each step).
        steps: optimizer steps the breakdown spans.
        link_gbps: the measured run's paced link rate; when given (and
            no explicit ``topology``), the fabric's star links run at
            exactly that rate so seconds are directly comparable.
        topology: explicit fabric to simulate on instead.
    """
    if topology is None:
        topology = (
            _paced_topology(world_size, link_gbps)
            if link_gbps is not None
            else single_node(world_size)
        )
    if topology.world_size != world_size:
        raise ValueError(
            f"topology has {topology.world_size} ranks, breakdown was "
            f"measured at world_size={world_size}"
        )
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    fabric = run_collective(topology, pattern, total_elements,
                            scheme=scheme)
    # the fabric predicts wire time only: the barrier spans (process
    # engine rendezvous jitter) are not charged to its communicate term
    return compare(
        breakdown,
        {"communicate": fabric.makespan_seconds * steps * world_size},
        title=(
            f"fabric cross-validation [{breakdown.label}] vs "
            f"{fabric.topology_name}/{pattern} ({scheme}/K={world_size})"
        ),
        prediction=fabric,
        charges_barrier=False,
    )
