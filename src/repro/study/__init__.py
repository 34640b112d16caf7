"""Experiment harness: one entry per table/figure of the paper."""

from .accuracy import (
    FIG5_EXPERIMENTS,
    AccuracyExperiment,
    run_accuracy_experiment,
    run_accuracy_experiment_multiseed,
)
from .bucket_size import BucketPoint, print_bucket_study, run_bucket_study
from .compression import (
    CompressionCell,
    compression_report,
    print_compression_report,
)
from .cost import (
    CostPoint,
    cheapest_configuration,
    cost_accuracy_curve,
    print_cost_accuracy,
)
from .extrapolation import (
    ExtrapolationPoint,
    dummy_alexnet,
    extrapolation_curve,
    print_extrapolation,
)
from .insights import Insight, evaluate_insights, print_insights
from .layer_sensitivity import (
    SensitivityResult,
    print_layer_sensitivity,
    run_layer_sensitivity,
)
from .performance import EpochBar, epoch_bars, print_epoch_bars
from .registry import EXPERIMENTS, Experiment, run_experiment
from .report import format_series, format_table, print_table
from .scalability import (
    ScalabilitySeries,
    print_scalability,
    scalability_series,
)
from .throughput import (
    ThroughputCell,
    ec2_machine_for,
    print_throughput_tables,
    throughput_table,
)

__all__ = [
    "BucketPoint",
    "CompressionCell",
    "compression_report",
    "print_compression_report",
    "print_bucket_study",
    "run_bucket_study",
    "FIG5_EXPERIMENTS",
    "AccuracyExperiment",
    "run_accuracy_experiment",
    "run_accuracy_experiment_multiseed",
    "CostPoint",
    "cheapest_configuration",
    "cost_accuracy_curve",
    "print_cost_accuracy",
    "ExtrapolationPoint",
    "dummy_alexnet",
    "extrapolation_curve",
    "print_extrapolation",
    "FabricSweepPoint",
    "fabric_sweep",
    "print_fabric_sweep",
    "Insight",
    "evaluate_insights",
    "print_insights",
    "SensitivityResult",
    "print_layer_sensitivity",
    "run_layer_sensitivity",
    "EpochBar",
    "epoch_bars",
    "print_epoch_bars",
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "format_series",
    "format_table",
    "print_table",
    "ScalabilitySeries",
    "print_scalability",
    "scalability_series",
    "ThroughputCell",
    "ec2_machine_for",
    "print_throughput_tables",
    "throughput_table",
]

#: names served by :mod:`.fabric`, imported on first use so that loading
#: the study harness (every ``repro`` command does) skips the simulator
_FABRIC_NAMES = ("FabricSweepPoint", "fabric_sweep", "print_fabric_sweep")


def __getattr__(name: str):
    if name in _FABRIC_NAMES:
        from . import fabric

        return getattr(fabric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
