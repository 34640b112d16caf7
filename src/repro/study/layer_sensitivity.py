"""Layer-type sensitivity study (paper Section 5.1).

The paper observes that convolutional layers are more sensitive to
quantization noise than fully connected layers, by comparing variants
that quantize (1) all layers vs (2) effectively only non-conv layers.
This study runs that comparison directly: the same network, the same
aggressive codec, with quantization restricted to one layer kind at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import History, ParallelTrainer, TrainingConfig
from ..data import make_image_dataset
from ..models import tiny_alexnet
from ..quantization.policy import DEFAULT_KIND_SENSITIVITY

__all__ = ["SensitivityResult", "run_layer_sensitivity",
           "print_layer_sensitivity", "derive_kind_sensitivity"]

#: the variants compared: which parameter kinds get quantized
VARIANTS: dict[str, tuple[str, ...] | None] = {
    "quantize all": None,
    "quantize conv only": ("conv",),
    "quantize fc only": ("fc",),
    "quantize none (32bit)": (),
}


@dataclass(frozen=True)
class SensitivityResult:
    variant: str
    final_accuracy: float
    best_accuracy: float
    comm_megabytes: float
    history: History


def run_layer_sensitivity(
    scheme: str = "qsgd2",
    epochs: int = 8,
    world_size: int = 4,
    seed: int = 0,
) -> list[SensitivityResult]:
    """Train the AlexNet-class model under each quantization scope."""
    dataset = make_image_dataset(
        num_classes=6, train_samples=384, test_samples=192,
        image_size=16, noise=1.2, seed=3,
    )
    results = []
    for variant, kinds in VARIANTS.items():
        config = TrainingConfig(
            scheme=scheme,
            exchange="mpi",
            world_size=world_size,
            batch_size=32,
            lr=0.01,
            lr_decay=0.93,
            seed=seed,
            quantize_kinds=kinds,
        )
        model = tiny_alexnet(num_classes=6, image_size=16, seed=1)
        trainer = ParallelTrainer(model, config)
        history = trainer.fit(
            dataset.train_x, dataset.train_y,
            dataset.test_x, dataset.test_y, epochs=epochs,
        )
        results.append(
            SensitivityResult(
                variant=variant,
                final_accuracy=history.final_test_accuracy,
                best_accuracy=history.best_test_accuracy,
                comm_megabytes=history.total_comm_bytes / 1e6,
                history=history,
            )
        )
    return results


#: variant label -> the single parameter kind it isolates
_SINGLE_KIND_VARIANTS = {
    "quantize conv only": "conv",
    "quantize fc only": "fc",
}

#: variant label of the unquantized reference run
_BASELINE_VARIANT = "quantize none (32bit)"


def derive_kind_sensitivity(
    results: list[SensitivityResult],
) -> dict[str, int]:
    """Measured sensitivity ranking for the adaptive bit-width policy.

    Bridges this study's empirical accuracy comparison to the
    :func:`repro.quantization.policy.derive_assignments` sensitivity
    mapping: the accuracy lost when quantizing *only* one layer kind
    (relative to the unquantized baseline) ranks that kind.  Kinds are
    sorted by accuracy drop and assigned tiers 2 (most sensitive,
    largest drop) down to 0; unmeasured kinds keep their
    :data:`~repro.quantization.policy.DEFAULT_KIND_SENSITIVITY` tier.
    Ties (drops within 1e-9) share the higher tier, so a run where
    conv and fc degrade identically never demotes conv below its
    prior.  The ranking is a pure function of the result list — two
    identical studies produce identical mappings.
    """
    by_variant = {r.variant: r for r in results}
    baseline = by_variant.get(_BASELINE_VARIANT)
    mapping = dict(DEFAULT_KIND_SENSITIVITY)
    if baseline is None:
        return mapping
    drops = {}
    for variant, kind in _SINGLE_KIND_VARIANTS.items():
        result = by_variant.get(variant)
        if result is not None:
            drops[kind] = baseline.final_accuracy - result.final_accuracy
    if not drops:
        return mapping
    # tier by drop order: worst-hit kind -> 2, next -> 1, ... floor 0
    ordered = sorted(drops, key=lambda kind: (-drops[kind], kind))
    top_drop = drops[ordered[0]]
    for position, kind in enumerate(ordered):
        if abs(drops[kind] - top_drop) <= 1e-9:
            mapping[kind] = 2
        else:
            mapping[kind] = max(0, 2 - position)
    return mapping


def print_layer_sensitivity(
    scheme: str = "qsgd2", epochs: int = 8
) -> list[SensitivityResult]:
    """Run and print the layer-sensitivity comparison."""
    from .report import print_table

    results = run_layer_sensitivity(scheme=scheme, epochs=epochs)
    print_table(
        ["Variant", "Final acc", "Best acc", "Comm (MB)"],
        [
            [r.variant, r.final_accuracy, r.best_accuracy,
             r.comm_megabytes]
            for r in results
        ],
        title=(
            f"Layer-type sensitivity under {scheme} "
            "(paper Section 5.1, 'Impact of Layer Types')"
        ),
    )
    return results
