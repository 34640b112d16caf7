"""Cross-validate measured phase breakdowns against a model's prediction.

The paper validates its analytic cost model against instrumented runs
(as Shi et al. do for their DAG model of S-SGD); this module does the
same for this repository.  A measured :class:`PhaseBreakdown` from the
live tracer is folded onto the paper's three cost terms (compute,
quantize, communicate) and compared, term by term, against a
predictor's seconds for the same terms.  :func:`compare` is that one
comparison; each predictor is a thin adapter that supplies its seconds:

* :func:`cross_validate` — the calibrated performance simulator
  (:func:`~repro.simulator.epoch.simulate`) on a paper-scale
  network/machine cell with the *same scheme, exchange and world size*;
* :func:`repro.fabric.fabric_cross_validate` — the fabric's link-level
  event simulation of the live payload (communicate only).

Live runs train tiny synthetic models while the simulator costs
paper-scale networks on EC2/DGX-1 hardware, so absolute seconds are
not comparable — phase *shares* are, and that is what the report
shows, plus the simulator's predicted exchange makespan: the same
closed-form exchange term (double-buffered overlap on MPI, quantize
then allreduce on NCCL) that the paper figures are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .export import PhaseBreakdown

__all__ = [
    "DEFAULT_FRACTION_GAP_TOLERANCE",
    "RatioRow",
    "CrossValidation",
    "compare",
    "cross_validate",
]

#: default pass/fail gate on phase-share agreement: the largest
#: |measured - simulated| phase fraction a run may show and still count
#: as cross-validated.  Live runs train tiny synthetic models while the
#: simulator costs paper-scale cells, so shares shift with model size;
#: 0.35 is wide enough for that scale gap yet tight enough to catch a
#: model that mis-attributes a phase entirely (gap ~ 1.0).
DEFAULT_FRACTION_GAP_TOLERANCE = 0.35

#: the cost term each measured span is charged to
_SPAN_PHASES = {
    "compute": "compute",
    "encode": "quantize",
    "decode": "quantize",
    "transfer": "communicate",
    "barrier": "communicate",
}


@dataclass(frozen=True)
class RatioRow:
    """One phase of the measured-vs-simulated comparison."""

    phase: str
    measured_seconds: float
    measured_fraction: float
    simulated_seconds: float
    simulated_fraction: float

    @property
    def fraction_gap(self) -> float:
        """Measured minus simulated share of the step."""
        return self.measured_fraction - self.simulated_fraction


@dataclass(frozen=True)
class CrossValidation:
    """Measured vs predicted phase shares for one run."""

    #: first report line: what was measured, against which prediction
    title: str
    breakdown: PhaseBreakdown
    #: the predictor's own result (a ``SimulationResult`` or a
    #: ``FabricSimResult``)
    prediction: object
    rows: tuple[RatioRow, ...]
    #: predicted exchange seconds per iteration, when the predictor
    #: prices a whole exchange
    predicted_makespan_seconds: float | None = None
    #: heading of the predicted column
    predictor: str = "predicted"

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
            self.title,
            f"  {'phase':12s} {'measured':>18s} {self.predictor:>18s}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row.phase:12s} "
                f"{row.measured_seconds:9.4f}s {row.measured_fraction:6.1%} "
                f"{row.simulated_seconds:9.4f}s {row.simulated_fraction:6.1%}"
            )
        if self.predicted_makespan_seconds is not None:
            lines.append(
                f"  predicted exchange makespan: "
                f"{self.predicted_makespan_seconds:.4f} s/iteration"
            )
        lines.append(
            f"  max phase-share gap: {self.max_fraction_gap:.1%} "
            f"(tolerance {DEFAULT_FRACTION_GAP_TOLERANCE:.0%})"
        )
        return "\n".join(lines)


def _share(part: float, total: float) -> float:
    return part / total if total else 0.0


def compare(
    breakdown: PhaseBreakdown,
    predicted: Mapping[str, float],
    *,
    title: str,
    prediction: object,
    charges_barrier: bool = True,
    predicted_makespan_seconds: float | None = None,
    predictor: str = "predicted",
) -> CrossValidation:
    """The one measured-vs-predicted comparison.

    Args:
        breakdown: phase seconds measured by the live tracer.
        predicted: predicted seconds per cost term; a term the
            predictor leaves out is carried over from the measurement,
            so only the terms it does predict move the shares.
        charges_barrier: whether the predictor prices the ``barrier``
            spans as communication.  A wire-only predictor does not:
            on the process engine they measure rendezvous scheduling
            jitter, which no network model should be charged with.
        title / prediction / predicted_makespan_seconds / predictor:
            carried onto the result for its report.
    """
    measured = dict.fromkeys(_SPAN_PHASES.values(), 0.0)
    for span, phase in _SPAN_PHASES.items():
        if charges_barrier or span != "barrier":
            measured[phase] += breakdown.phase_seconds.get(span, 0.0)
    predicted = {**measured, **predicted}
    measured_total = sum(measured.values())
    predicted_total = sum(predicted.values())
    rows = tuple(
        RatioRow(
            phase=phase,
            measured_seconds=measured[phase],
            measured_fraction=_share(measured[phase], measured_total),
            simulated_seconds=predicted[phase],
            simulated_fraction=_share(predicted[phase], predicted_total),
        )
        for phase in measured
    )
    return CrossValidation(
        title=title,
        breakdown=breakdown,
        prediction=prediction,
        rows=rows,
        predicted_makespan_seconds=predicted_makespan_seconds,
        predictor=predictor,
    )


def cross_validate(
    breakdown: PhaseBreakdown,
    *,
    scheme: str,
    exchange: str,
    world_size: int,
    network: str = "AlexNet",
    machine: str = "p2.8xlarge",
) -> CrossValidation:
    """Compare a measured breakdown to the simulator's prediction.

    Args:
        breakdown: phase seconds measured by the live tracer.
        scheme / exchange / world_size: the cell the breakdown was
            measured on (the simulator is run on the same cell).
        network / machine: paper-scale inventory entries the simulator
            costs; the comparison is by phase *ratio*, so the live
            run's model need not (and cannot) match their size.
    """
    from ..simulator.epoch import simulate  # off the `import repro` path

    sim = simulate(network, machine, scheme, exchange, world_size)
    return compare(
        breakdown,
        {
            "compute": sim.compute_seconds,
            "quantize": sim.quantize_seconds,
            "communicate": sim.comm_seconds,
        },
        title=(
            f"cross-validation [{breakdown.label}] vs simulated "
            f"{network} on {machine} "
            f"({scheme}/{exchange}/K={world_size})"
        ),
        prediction=sim,
        predicted_makespan_seconds=sim.exchange_seconds,
        predictor="simulated",
    )
