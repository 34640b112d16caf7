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
comparison (the same :class:`~repro.telemetry.crossval.RatioRow`
machinery, gated by the shared
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
from dataclasses import dataclass, replace

from ..telemetry.crossval import (
    DEFAULT_FRACTION_GAP_TOLERANCE,
    RatioRow,
)
from ..telemetry.export import PhaseBreakdown
from .simulate import FabricSimResult, run_collective
from .topology import FabricTopology, Link, LinkClass, single_node

__all__ = ["FabricCrossValidation", "fabric_cross_validate"]

#: span grouping for the fabric anchor.  Unlike the general
#: cross-validation's groups, ``communicate`` maps to the ``transfer``
#: span alone: the fabric predicts *wire* time, while ``barrier``
#: spans on the process engine measure multi-process rendezvous
#: scheduling jitter — orchestration overhead that dwarfs wire time at
#: toy scale and that no network model should be charged with.
_FABRIC_GROUPS = {
    "compute": ("compute",),
    "quantize": ("encode", "decode"),
    "communicate": ("transfer",),
}


@dataclass(frozen=True)
class FabricCrossValidation:
    """Measured vs fabric-predicted phase shares for one live run."""

    pattern: str
    scheme: str
    world_size: int
    breakdown: PhaseBreakdown
    fabric: FabricSimResult
    #: fabric-predicted aggregate communication rank-seconds for the
    #: whole measured run (steps x world_size x collective makespan)
    predicted_comm_seconds: float
    rows: tuple[RatioRow, ...]

    @property
    def max_fraction_gap(self) -> float:
        """Largest |measured - predicted| phase share across rows."""
        return max(
            (abs(row.fraction_gap) for row in self.rows), default=0.0
        )

    def passes(
        self, tolerance: float = DEFAULT_FRACTION_GAP_TOLERANCE
    ) -> bool:
        """Whether every phase share agrees within ``tolerance``."""
        return self.max_fraction_gap <= tolerance

    def report(self) -> str:
        """Side-by-side share table, one line per phase."""
        lines = [
            f"fabric cross-validation [{self.breakdown.label}] vs "
            f"{self.fabric.topology_name}/{self.pattern} "
            f"({self.scheme}/K={self.world_size})",
            f"  {'phase':12s} {'measured':>18s} {'predicted':>18s}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row.phase:12s} "
                f"{row.measured_seconds:9.4f}s {row.measured_fraction:6.1%} "
                f"{row.simulated_seconds:9.4f}s {row.simulated_fraction:6.1%}"
            )
        lines.append(
            f"  max phase-share gap: {self.max_fraction_gap:.1%} "
            f"(tolerance {DEFAULT_FRACTION_GAP_TOLERANCE:.0%})"
        )
        return "\n".join(lines)


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
) -> FabricCrossValidation:
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
    predicted_comm = fabric.makespan_seconds * steps * world_size

    measured = {
        group: sum(
            breakdown.phase_seconds.get(name, 0.0) for name in names
        )
        for group, names in _FABRIC_GROUPS.items()
    }
    predicted = dict(measured)
    predicted["communicate"] = predicted_comm
    measured_total = sum(measured.values())
    predicted_total = sum(predicted.values())
    rows = tuple(
        RatioRow(
            phase=group,
            measured_seconds=measured[group],
            measured_fraction=(
                measured[group] / measured_total if measured_total else 0.0
            ),
            simulated_seconds=predicted[group],
            simulated_fraction=(
                predicted[group] / predicted_total
                if predicted_total
                else 0.0
            ),
        )
        for group in _FABRIC_GROUPS
    )
    return FabricCrossValidation(
        pattern=pattern,
        scheme=scheme,
        world_size=world_size,
        breakdown=breakdown,
        fabric=fabric,
        predicted_comm_seconds=predicted_comm,
        rows=rows,
    )
