"""Core: synchronous data-parallel SGD with quantized communication."""

from .algorithm import SynchronousStep
from .checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    TrainingCheckpoint,
    checkpoint_steps,
    latest_checkpoint,
    save_checkpoint,
)
from .config import POLICY_NAMES, TrainingConfig
from .metrics import EpochMetrics, History
from .runspec import RunSpec
from .trainer import ParallelTrainer, TrainingInterrupted

__all__ = [
    "SynchronousStep",
    "CheckpointError",
    "CheckpointPolicy",
    "TrainingCheckpoint",
    "checkpoint_steps",
    "latest_checkpoint",
    "save_checkpoint",
    "TrainingConfig",
    "POLICY_NAMES",
    "RunSpec",
    "EpochMetrics",
    "History",
    "ParallelTrainer",
    "TrainingInterrupted",
]
