"""Metric containers for training runs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..runtime.faults import WorkerFailure
    from ..runtime.resilience import TopologyChange

__all__ = ["EpochMetrics", "History", "PHASE_NAMES"]

#: per-phase timing fields, in the paper's breakdown-figure order
PHASE_NAMES = ("compute", "encode", "transfer", "decode", "barrier")


@dataclass
class EpochMetrics:
    """Measurements from one training epoch.

    The ``*_seconds`` phase fields are populated from the live tracer
    when :attr:`~repro.core.TrainingConfig.tracer` is set (they are the
    measured per-phase busy time of the epoch's training steps) and
    stay ``None`` on untraced runs.
    """

    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float
    comm_bytes: int
    wall_seconds: float
    compute_seconds: float | None = None
    encode_seconds: float | None = None
    transfer_seconds: float | None = None
    decode_seconds: float | None = None
    barrier_seconds: float | None = None


@dataclass
class History:
    """Per-epoch measurements of one run, ready for figure series.

    Attributes:
        failures: structured :class:`~repro.runtime.faults.WorkerFailure`
            records for ranks that crashed or timed out; a non-empty
            list means the run stopped early.
        topology_changes: ranks evicted mid-run by graceful degradation
            (:class:`~repro.runtime.resilience.TopologyChange`); unlike
            ``failures`` these do *not* stop the run — training
            continued on the survivors.
        kernel_backend: name of the quantization kernel backend that
            was active during the run ("cext" or "numpy"),
            recorded by the trainer for provenance.  Deliberately
            excluded from :meth:`digest`: equal digests from runs whose
            ``kernel_backend`` differs is exactly the cross-backend
            bit-identity evidence the kernels CI job checks for.
    """

    label: str
    epochs: list[EpochMetrics] = field(default_factory=list)
    failures: list["WorkerFailure"] = field(default_factory=list)
    topology_changes: list["TopologyChange"] = field(default_factory=list)
    kernel_backend: str | None = None

    def append(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def final_test_accuracy(self) -> float:
        if not self.epochs:
            raise ValueError("history is empty")
        return self.epochs[-1].test_accuracy

    @property
    def best_test_accuracy(self) -> float:
        if not self.epochs:
            raise ValueError("history is empty")
        return max(m.test_accuracy for m in self.epochs)

    @property
    def total_comm_bytes(self) -> int:
        return sum(m.comm_bytes for m in self.epochs)

    def series(self, attribute: str) -> list[float]:
        """Extract one per-epoch series by attribute name."""
        return [getattr(m, attribute) for m in self.epochs]

    def phase_totals(self) -> dict[str, float]:
        """Whole-run seconds per traced phase (zeros when untraced).

        Sums the per-epoch ``*_seconds`` fields the trainer records
        when tracing is on; this is the series behind the paper's
        stacked-bar time-per-epoch breakdowns.
        """
        return {
            phase: float(
                sum(
                    getattr(m, f"{phase}_seconds") or 0.0
                    for m in self.epochs
                )
            )
            for phase in PHASE_NAMES
        }

    def epochs_to_reach(self, test_accuracy: float) -> int | None:
        """Epochs needed to first reach ``test_accuracy``.

        This is the paper's convergence-rate metric ("#iterations" in
        its measurement list): quantized runs may need more epochs to
        hit the same accuracy even when the final accuracy matches.
        Returns ``None`` if the run never reached the target.
        """
        for metrics in self.epochs:
            if metrics.test_accuracy >= test_accuracy:
                return metrics.epoch + 1
        return None

    def digest(self) -> str:
        """Content hash of the numeric training trajectory.

        Hashes every per-epoch *numeric* field — losses and accuracies
        via ``float.hex`` (exact, no formatting loss) plus the integer
        comm-byte counts — and deliberately excludes wall-clock and
        traced phase times, which legitimately differ between runs of
        the same trajectory, and run metadata such as
        :attr:`kernel_backend`, so digest equality across backends is
        meaningful.  Two runs producing the same digest took
        bit-identical per-epoch measurements; the resume CI job
        compares an interrupted-then-resumed run against an
        uninterrupted one this way, and the kernels CI job compares a
        compiled-backend run against the numpy reference.
        """
        h = hashlib.sha256()
        h.update(self.label.encode())
        for m in self.epochs:
            row = (
                f"|{m.epoch}"
                f"|{float(m.train_loss).hex()}"
                f"|{float(m.train_accuracy).hex()}"
                f"|{float(m.test_accuracy).hex()}"
                f"|{int(m.comm_bytes)}"
            )
            h.update(row.encode())
        return h.hexdigest()

    def to_dict(self) -> dict:
        """JSON-serializable run record (for EXPERIMENTS.md tooling)."""
        record = {
            "label": self.label,
            # phase fields are None on untraced runs; drop them so old
            # and new records serialize identically when tracing is off
            "epochs": [
                {k: v for k, v in vars(m).items() if v is not None}
                for m in self.epochs
            ],
        }
        if self.kernel_backend is not None:
            record["kernel_backend"] = self.kernel_backend
        if self.failures:
            record["failures"] = [f.to_dict() for f in self.failures]
        if self.topology_changes:
            record["topology_changes"] = [
                t.to_dict() for t in self.topology_changes
            ]
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "History":
        """Inverse of :meth:`to_dict`."""
        from ..runtime.faults import WorkerFailure
        from ..runtime.resilience import TopologyChange

        history = cls(
            label=record["label"],
            kernel_backend=record.get("kernel_backend"),
        )
        for row in record["epochs"]:
            history.append(EpochMetrics(**row))
        for row in record.get("failures", ()):
            history.failures.append(WorkerFailure.from_dict(row))
        for row in record.get("topology_changes", ()):
            history.topology_changes.append(TopologyChange.from_dict(row))
        return history
