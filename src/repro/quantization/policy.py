"""Per-gradient codec routing: passthrough and adaptive bit-widths.

Quantizing tiny gradient matrices costs kernel-launch time without
saving meaningful bandwidth, so the paper's artefact ships matrices
with few elements at full precision, choosing the size threshold such
that *more than 99% of all parameters are still quantized*.

:func:`passthrough_threshold` computes that threshold from a model's
parameter-size inventory, and :class:`QuantizationPolicy` pairs a
quantizer with the threshold to decide per-gradient which codec to use.

:class:`AdaptiveBitWidthPolicy` extends the routing to *per-layer
bit-widths*: the paper's Section 5.1 layer-type study shows
convolutional layers are sensitive to quantization noise while fully
connected layers tolerate 1-2 bits, so the adaptive policy assigns each
named layer its own scheme — high precision for sensitive kinds,
ternary for the fat fc matrices that dominate wire bytes — from a
deterministic derivation over the static parameter inventory,
optionally refined by the measured per-layer encode/wire counters the
telemetry layer collects.  Assignments are frozen at construction and
carried through checkpoints, so resumed (and degraded) runs re-derive
bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .base import Quantizer
from .fullprec import FullPrecision

__all__ = [
    "passthrough_threshold",
    "QuantizationPolicy",
    "AdaptiveBitWidthPolicy",
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


@dataclass
class QuantizationPolicy:
    """Route each gradient to the quantizer or the full-precision path.

    Attributes:
        quantizer: codec used for large gradients.
        threshold: gradients with fewer elements than this are sent at
            full precision.  ``0`` disables the passthrough.
    """

    quantizer: Quantizer
    threshold: int = 0

    def __post_init__(self) -> None:
        self.fullprec = FullPrecision()

    @classmethod
    def for_model(
        cls,
        quantizer: Quantizer,
        sizes: Sequence[int],
        coverage: float = DEFAULT_COVERAGE,
    ) -> "QuantizationPolicy":
        """Build a policy whose threshold covers ``coverage`` of params."""
        return cls(quantizer, passthrough_threshold(sizes, coverage))

    def codec_for(self, size: int) -> Quantizer:
        """The codec a gradient of ``size`` elements will travel through."""
        if size < self.threshold:
            return self.fullprec
        return self.quantizer

    def codec_for_layer(self, name: str, size: int) -> Quantizer:
        """The codec for the named layer's gradient.

        The static policy routes purely by size; the adaptive subclass
        overrides this with its per-layer assignments.  The step engine
        calls this form so both policies flow through one code path.
        """
        return self.codec_for(size)


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
class AdaptiveBitWidthPolicy(QuantizationPolicy):
    """Per-layer bit-width selection over a frozen assignment table.

    Attributes:
        quantizer: the run's configured codec — the middle tier of the
            assignment ladder and the fallback for unassigned streams.
        threshold: small-matrix passthrough, as in the static policy.
        inventory: ``(name, size, kind)`` triples the assignments were
            derived from (kept so :meth:`refit` can re-derive).
        assignments: layer name -> scheme name.  Frozen for the life of
            the policy: the in-run routing never moves mid-trajectory,
            which is what keeps resumed and degraded runs bit-identical.
            Checkpoints persist this table verbatim.
    """

    inventory: tuple[tuple[str, int, str], ...] = ()
    assignments: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.inventory = tuple(
            (str(n), int(s), str(k)) for n, s, k in self.inventory
        )
        if not self.assignments:
            self.assignments = derive_assignments(
                self.inventory, self.threshold,
                default_scheme=self.quantizer.name,
            )
        # one codec instance per assigned scheme, shared across layers
        # so workspace scratch and bucket plans are reused
        self._codecs: dict[str, Quantizer] = {
            self.quantizer.name: self.quantizer,
            self.fullprec.name: self.fullprec,
        }

    @classmethod
    def for_layers(
        cls,
        quantizer: Quantizer,
        inventory: Sequence[tuple[str, int, str]],
        coverage: float = DEFAULT_COVERAGE,
        sensitivity: Mapping[str, int] | None = None,
        profiles: Mapping[str, Mapping[str, int]] | None = None,
    ) -> "AdaptiveBitWidthPolicy":
        """Derive a policy from a model's named parameter inventory."""
        inventory = tuple(
            (str(n), int(s), str(k)) for n, s, k in inventory
        )
        threshold = passthrough_threshold(
            [size for _, size, _ in inventory], coverage
        )
        assignments = derive_assignments(
            inventory, threshold,
            default_scheme=quantizer.name,
            sensitivity=sensitivity,
            profiles=profiles,
        )
        return cls(quantizer, threshold, inventory, assignments)

    def refit(
        self, profiles: Mapping[str, Mapping[str, int]]
    ) -> "AdaptiveBitWidthPolicy":
        """A new policy re-derived from measured per-layer counters.

        Refitting never mutates this policy — the live trajectory keeps
        its frozen table; the caller decides when (between runs, never
        mid-run) to adopt the refitted one.  The derivation is a pure
        function of the counters, so identical measurements always
        produce identical assignments.
        """
        threshold = self.threshold
        assignments = derive_assignments(
            self.inventory, threshold,
            default_scheme=self.quantizer.name,
            profiles=profiles,
        )
        return AdaptiveBitWidthPolicy(
            self.quantizer, threshold, self.inventory, assignments
        )

    def scheme_for_layer(self, name: str, size: int) -> str:
        """The scheme name the layer's gradient will travel as."""
        return self.codec_for_layer(name, size).name

    def codec_for_layer(self, name: str, size: int) -> Quantizer:
        scheme = self.assignments.get(name)
        if scheme is None:
            return self.codec_for(size)
        return self._codec(scheme)

    def _codec(self, scheme: str) -> Quantizer:
        codec = self._codecs.get(scheme)
        if codec is None:
            from . import make_quantizer

            codec = make_quantizer(scheme)
            self._codecs[scheme] = codec
        return codec
