"""Per-gradient codec routing: one frozen name -> codec table.

Quantizing tiny gradient matrices costs kernel-launch time without
saving meaningful bandwidth, so the paper's artefact ships matrices
with few elements at full precision, choosing the size threshold such
that *more than 99% of all parameters are still quantized*.
:func:`passthrough_threshold` computes that threshold from a model's
parameter-size inventory.

The paper's Section 5.1 layer-type study shows convolutional layers
are sensitive to quantization noise while fully connected layers
tolerate 1-2 bits, so the adaptive policy assigns each named layer its
own scheme -- high precision for sensitive kinds, ternary for the fat
fc matrices that dominate wire bytes -- from a deterministic
derivation over the static parameter inventory
(:func:`derive_assignments`), optionally refined by the measured
per-layer encode/wire counters the telemetry layer collects.

:class:`QuantizationPolicy` applies all three rules -- the passthrough
threshold, the adaptive assignments and the layer-kind override that
leaves whole kinds unquantized -- once, when it builds its table from
the ``(name, size, kind)`` inventory.  The routing never moves
mid-trajectory: the adaptive part is carried through checkpoints and
adopted on resume, so resumed (and degraded) runs route every layer as
the original did.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Mapping, Sequence

from .base import Quantizer
from .fullprec import FullPrecision

__all__ = [
    "passthrough_threshold",
    "QuantizationPolicy",
    "derive_assignments",
    "DEFAULT_KIND_SENSITIVITY",
]

DEFAULT_COVERAGE = 0.99


def passthrough_threshold(
    sizes: Sequence[int], coverage: float = DEFAULT_COVERAGE
) -> int:
    """Largest size threshold that still quantizes ``coverage`` of params.

    Gradients with ``size < threshold`` are sent at full precision.
    The threshold is chosen greedily from the smallest matrices up, so
    the quantized fraction of parameters stays strictly above
    ``coverage``.

    Returns 0 (nothing skipped) for an empty inventory.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    sizes = sorted(int(s) for s in sizes)
    if not sizes:
        return 0
    total = sum(sizes)
    budget = (1.0 - coverage) * total
    skipped = 0
    threshold = 0
    index = 0
    while index < len(sizes):
        # a size class is skipped only if *all* matrices of that size
        # fit in the budget — the threshold test is size-based, so
        # partial classes cannot be excluded
        size = sizes[index]
        end = index
        class_total = 0
        while end < len(sizes) and sizes[end] == size:
            class_total += size
            end += 1
        if skipped + class_total > budget:
            break
        skipped += class_total
        threshold = size + 1
        index = end
    return threshold


#: how sensitive each parameter kind is to aggressive quantization
#: (2 = keep precision, 1 = paper default, 0 = tolerates 1-2 bits) —
#: the ranking measured by the Section 5.1 layer-type study: conv and
#: batch-norm statistics degrade under coarse codecs, fc matrices do
#: not; unknown kinds default to the middle tier
DEFAULT_KIND_SENSITIVITY: dict[str, int] = {
    "conv": 2,
    "bn": 2,
    "bias": 2,
    "rnn": 1,
    "param": 1,
    "fc": 0,
}

#: element count above which a tolerant (tier-0) layer is "fat" enough
#: that pushing it to the 2-bit ternary codec pays for the extra noise
DEFAULT_FAT_LAYER_SIZE = 4096

#: a layer carrying at least this fraction of the measured wire bytes
#: is a bandwidth hot spot the refit drops one precision tier
WIRE_HOTSPOT_SHARE = 0.25

#: a sensitive layer below this measured wire share is promoted to
#: full precision outright — its bytes are noise on the wire
WIRE_NEGLIGIBLE_SHARE = 0.01

#: precision ladder the refit moves along, highest precision first
_PRECISION_LADDER = ("32bit", "qsgd8", "qsgd4", "terngrad")


def derive_assignments(
    inventory: Sequence[tuple[str, int, str]],
    threshold: int,
    default_scheme: str = "qsgd4",
    sensitivity: Mapping[str, int] | None = None,
    profiles: Mapping[str, Mapping[str, int]] | None = None,
    fat_size: int = DEFAULT_FAT_LAYER_SIZE,
) -> dict[str, str]:
    """Deterministic per-layer scheme assignment.

    Args:
        inventory: ``(name, size, kind)`` triples for every parameter.
        threshold: the passthrough threshold; smaller layers ship at
            full precision exactly as the static policy would.
        default_scheme: scheme for middle-tier layers (normally the
            run's configured scheme).
        sensitivity: kind -> tier override of
            :data:`DEFAULT_KIND_SENSITIVITY`.
        profiles: optional *measured* per-layer counters (the
            ``layer_profile()`` of :class:`repro.telemetry.Counters`):
            layers whose measured wire share reaches
            :data:`WIRE_HOTSPOT_SHARE` are dropped one precision tier,
            and sensitive layers whose share is below
            :data:`WIRE_NEGLIGIBLE_SHARE` are promoted to full
            precision.  The derivation touches profiles only through
            per-name lookups and a sorted-order total, so any dict
            ordering of the same counters yields the same assignment.
        fat_size: element count above which tier-0 layers go ternary.

    Returns a ``name -> scheme`` dict over the full inventory, built in
    sorted-name order (purely cosmetic: the mapping is keyed, so the
    derivation is order-independent by construction).
    """
    ranks = dict(DEFAULT_KIND_SENSITIVITY)
    if sensitivity:
        ranks.update(sensitivity)
    total_wire = 0
    if profiles:
        total_wire = sum(
            int(profiles[name].get("wire_bytes", 0))
            for name in sorted(profiles)
        )
    assignments: dict[str, str] = {}
    for name, size, kind in sorted(
        (str(n), int(s), str(k)) for n, s, k in inventory
    ):
        if size < threshold:
            assignments[name] = "32bit"
            continue
        tier = ranks.get(kind, 1)
        if tier >= 2:
            scheme = "qsgd8" if default_scheme != "32bit" else "32bit"
        elif tier <= 0 and size >= fat_size:
            scheme = "terngrad"
        else:
            scheme = default_scheme
        if profiles and total_wire > 0 and name in profiles:
            share = (
                int(profiles[name].get("wire_bytes", 0)) / total_wire
            )
            if share >= WIRE_HOTSPOT_SHARE and tier < 2:
                scheme = _drop_precision(scheme)
            elif share <= WIRE_NEGLIGIBLE_SHARE and tier >= 2:
                scheme = "32bit"
        assignments[name] = scheme
    return assignments


def _drop_precision(scheme: str) -> str:
    """One step down the precision ladder (saturating at ternary)."""
    if scheme in _PRECISION_LADDER:
        index = _PRECISION_LADDER.index(scheme)
        return _PRECISION_LADDER[min(index + 1, len(_PRECISION_LADDER) - 1)]
    return "terngrad"


@dataclass
class QuantizationPolicy:
    """The codec every named gradient travels with, decided once.

    Attributes:
        quantizer: the run's configured codec -- what a layer above the
            passthrough threshold travels with, and the middle tier of
            the adaptive ladder.
        inventory: ``(name, size, kind)`` triples of every parameter.
        coverage: the fraction of parameters the passthrough threshold
            keeps quantized.
        adaptive: derive per-layer bit-widths (:func:`derive_assignments`)
            instead of routing by size alone.
        quantize_kinds: the parameter kinds left quantized (Section
            5.1, layer types); every other kind ships at full precision.
            ``None`` quantizes every kind.
        assignments: the adaptive derivation, layer name -> scheme
            (``{}`` under the static policy).  Checkpoints persist it
            verbatim; a carried table is adopted in place of a fresh
            derivation.

    :attr:`table` maps every inventory name to its codec.  One codec
    instance serves every layer of a scheme (``quantizer`` and
    :attr:`fullprec` among them), so workspace scratch and bucket plans
    are shared.
    """

    quantizer: Quantizer
    inventory: Sequence[tuple[str, int, str]] = ()
    coverage: float = DEFAULT_COVERAGE
    adaptive: bool = False
    quantize_kinds: Collection[str] | None = None
    assignments: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.inventory = tuple(
            (str(n), int(s), str(k)) for n, s, k in self.inventory
        )
        self.threshold = passthrough_threshold(
            [size for _, size, _ in self.inventory], self.coverage
        )
        if self.adaptive and not self.assignments:
            self.assignments = derive_assignments(
                self.inventory, self.threshold,
                default_scheme=self.quantizer.name,
            )
        self.fullprec = FullPrecision()
        self._codecs = {
            self.quantizer.name: self.quantizer,
            self.fullprec.name: self.fullprec,
        }
        self.adopt(self.assignments)

    def adopt(self, assignments: Mapping[str, str]) -> None:
        """Rebuild :attr:`table` over the adaptive ``assignments``."""
        from . import make_quantizer

        self.assignments = dict(assignments)
        self.table: dict[str, Quantizer] = {}
        kinds = self.quantize_kinds
        for name, size, kind in self.inventory:
            scheme = self.assignments.get(name)
            if kinds is not None and kind not in kinds:
                codec = self.fullprec
            elif scheme is not None:
                if scheme not in self._codecs:
                    self._codecs[scheme] = make_quantizer(scheme)
                codec = self._codecs[scheme]
            else:
                codec = (
                    self.quantizer if size >= self.threshold
                    else self.fullprec
                )
            self.table[name] = codec

    def refit(
        self, profiles: Mapping[str, Mapping[str, int]]
    ) -> "QuantizationPolicy":
        """A new policy re-derived from measured per-layer counters.

        Refitting never mutates this policy -- the live trajectory keeps
        its table; the caller decides when (between runs, never mid-run)
        to switch to the refitted one.  The derivation is a pure
        function of the counters, so identical measurements always
        produce identical assignments.
        """
        return replace(self, assignments=derive_assignments(
            self.inventory, self.threshold,
            default_scheme=self.quantizer.name,
            profiles=profiles,
        ))
