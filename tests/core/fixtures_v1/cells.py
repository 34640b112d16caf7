"""The three runs behind the v1 fixtures (shared by the script that
wrote them at the parent commit and the test that resumes them)."""
import numpy as np

from repro.core import ParallelTrainer, TrainingConfig
from repro.nn import Dense, ReLU, Sequential


def _data():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(48, 12)).astype(np.float32)
    y = (x[:, :3].sum(axis=1) > 0).astype(np.int64) + 2 * (x[:, 3] > 0)
    return x[:36], y[:36], x[36:], y[36:]


_BASE = dict(batch_size=12, lr=0.05, seed=3, passthrough_coverage=1.0)
_FAULT = dict(crash_rank=1, crash_step=1, max_retries=0, allow_degraded=True)

#: name -> config knobs, the step whose checkpoint is the fixture
CELLS = {
    # mid-epoch 1: per-rank EF residuals + the MPI broadcast residuals
    "onebit_mpi_mid_epoch": dict(
        config=dict(scheme="1bit", exchange="mpi", world_size=2, momentum=0.9),
        step=4,
    ),
    # mid-round: diverged replicas (param{i}r{pos}) + the round base
    "local_sgd_mid_round": dict(
        config=dict(scheme="qsgd4", exchange="nccl", world_size=2, momentum=0.0,
                    aggregation_frequency=4, sync_mode="local_sgd"),
        step=6,
    ),
    # mid-round, after rank 1 was evicted at step 1: accumulators of the
    # two survivors + live_ranks [0, 2]
    "allreduce_mid_round_evicted": dict(
        config=dict(scheme="1bit", exchange="mpi", world_size=3, momentum=0.9,
                    aggregation_frequency=4, sync_mode="allreduce"),
        faults=_FAULT, step=6,
    ),
}
for _cell in CELLS.values():
    _cell.update(data=_data(), epochs=3)


def build(cell, faults):
    """A fresh trainer for ``cell`` (with its fault injection or not)."""
    rng = np.random.default_rng(1)
    model = Sequential(
        Dense(12, 16, "fc1", rng), ReLU(), Dense(16, 4, "fc2", rng)
    )
    knobs = {**_BASE, **cell["config"], **(cell.get("faults", {}) if faults else {})}
    return ParallelTrainer(model, TrainingConfig(**knobs))
