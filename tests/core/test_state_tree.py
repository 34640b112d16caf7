"""The guard the hand-written state lists never had.

``ParallelTrainer.state_dict()`` is the one inventory of what a run
carries from step to step (:mod:`repro.statetree`).  These tests fail
when state exists that the tree does not name, when a step moves a path
nobody declared step-mutable, or when loading a tree does not continue
the run.
"""

import re
import types

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.nn import BatchNorm, Dense, Dropout, ReLU, Sequential
from repro.runtime.engine import STEP_MUTABLE
from repro.runtime.faults import WorkerFailureError
from repro.statetree import flatten

#: arrays and generators a trainer may reach that are *not* state:
#: attribute-path pattern -> why nothing needs to carry them
EPHEMERAL = {
    r"\.grad$": "Parameter.grad: rewritten by every backward pass",
    r"\.model\..*\._\w+": "a layer's per-step cache (BatchNorm._cache)",
    r"\.workspace\.": "the EncodeWorkspace arena: scratch, overwritten",
    r"\.policy\.": "codec level tables: constants",
    r"\._retry_state\._rng$": "backoff jitter: paces sleeps, not numerics",
    r"\._active_ctx\.": "the threaded engine's last step: its batch shards",
    r"\._(grad|mean)_views\b": "the process engine's shm gradient arena",
}
SCHEMES = {
    "1bit-mpi": dict(scheme="1bit", exchange="mpi", requantize_broadcast=True),
    "qsgd4-nccl": dict(scheme="qsgd4", exchange="nccl"),
    "adaptive": dict(scheme="qsgd4", exchange="nccl", policy="adaptive"),
}
ROUNDS = {
    "every-step": dict(momentum=0.9),
    "allreduce-4": dict(
        momentum=0.9, aggregation_frequency=4, sync_mode="allreduce"
    ),
    "local-sgd-4": dict(
        momentum=0.0, aggregation_frequency=4, sync_mode="local_sgd"
    ),
}
RNG = np.random.default_rng(0)
X = RNG.normal(size=(5, 12, 12)).astype(np.float32)
Y = RNG.integers(0, 4, size=(5, 12))


def build(**knobs):
    rng = np.random.default_rng(1)
    model = Sequential(
        Dense(12, 64, "fc1", rng), BatchNorm(64, "bn"), ReLU(),
        Dropout(0.25, rng), Dense(64, 4, "fc2", rng),
    )
    config = TrainingConfig(
        world_size=2, batch_size=12, seed=3, passthrough_coverage=1.0, **knobs
    )
    return ParallelTrainer(model, config)


def reachable(root):
    """Every ndarray / Generator under ``root``, by attribute path: the
    ``vars()`` walk of ``collect_module_buffers``, over any object."""
    seen, found, todo = set(), [], [("trainer", root)]
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType)
    while todo:
        path, node = todo.pop()
        if id(node) in seen or isinstance(node, skip):
            continue
        seen.add(id(node))
        if isinstance(node, (np.ndarray, np.random.Generator)):
            found.append((path, node))
        elif isinstance(node, dict):
            todo += [(f"{path}[{key!r}]", value) for key, value in node.items()]
        elif isinstance(node, (list, tuple)):
            todo += [(f"{path}[{i}]", value) for i, value in enumerate(node)]
        elif hasattr(node, "__dict__"):
            todo += [(f"{path}.{key}", v) for key, v in vars(node).items()]
    return found


def tree_nodes(node):
    yield node
    children = node.values() if isinstance(node, dict) else node
    if isinstance(node, (dict, list)):
        for child in children:
            yield from tree_nodes(child)


def unaccounted(trainer):
    """Reachable arrays / generators the state tree does not hold."""
    nodes = list(tree_nodes(trainer.state_dict()))
    arrays = [n for n in nodes if isinstance(n, np.ndarray)]
    states = [n for n in nodes if isinstance(n, dict) and "bit_generator" in n]
    missing = []
    for path, value in reachable(trainer):
        if any(re.search(pattern, path) for pattern in EPHEMERAL):
            continue
        if isinstance(value, np.ndarray):
            held = any(
                a.shape == value.shape and np.array_equal(a, value)
                for a in arrays
            )
        else:
            held = value.bit_generator.state in states
        if not held:
            missing.append(path)
    return missing


def same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def changed_paths(before, after):
    """Paths that appeared, vanished or hold a different value."""
    before, after = flatten(before), flatten(after)
    return {
        path
        for path in before.keys() | after.keys()
        if path not in before
        or path not in after
        or not same(before[path], after[path])
    }


@pytest.mark.parametrize("engine", ["sequential", "threaded", "process"])
def test_every_reachable_array_and_generator_is_in_the_tree(engine):
    knobs = {**SCHEMES["1bit-mpi"], **ROUNDS["allreduce-4"]}
    with build(engine=engine, **knobs) as trainer:
        for step in range(5):  # one flush, then mid-round again
            trainer.train_step(X[step], Y[step])
        assert unaccounted(trainer) == []
        # the guard bites: new state is reported until a state_dict
        # names it.  (Hung on a layer a public ndarray *is* named — the
        # buffer walk picks it up — so hang it where no walk looks.)
        trainer.engine.extra_stat = np.full(3, 7.5)
        assert unaccounted(trainer) == ["trainer.engine.extra_stat"]


def test_a_step_moves_only_declared_paths_and_a_rollback_restores_all():
    movable = STEP_MUTABLE + ("params/", "velocity/", "step_index/")
    knobs = {**SCHEMES["1bit-mpi"], **ROUNDS["every-step"]}
    faults = dict(max_retries=1, retry_backoff=0.0, crash_rank=1, crash_step=1)
    with build(**knobs, **faults) as trainer:
        before = trainer.state_dict()
        trainer.train_step(X[0], Y[0])
        after = trainer.state_dict()
        moved = changed_paths(before, after)
        assert {p for p in moved if not f"{p}/".startswith(movable)} == set()
        assert {p.split("/")[0] for p in moved} >= {"params", "step", "ranks"}
        # step 1: rank 0 runs its forward pass twice (dropout draws,
        # batchnorm statistics), rank 1 crashes both attempts; each is
        # rolled back, so only the step counter moved
        with pytest.raises(WorkerFailureError):
            trainer.train_step(X[1], Y[1])
        assert changed_paths(after, trainer.state_dict()) == {"step_index"}


@pytest.mark.parametrize("rounds", ROUNDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_loading_a_tree_into_a_fresh_trainer_continues_the_run(scheme, rounds):
    knobs = {**SCHEMES[scheme], **ROUNDS[rounds]}
    with build(**knobs) as original, build(**knobs) as fresh:
        for step in range(2):  # mid-round when rounds are 4 steps long
            original.train_step(X[step], Y[step])
        fresh.load_state_dict(original.state_dict())
        assert changed_paths(original.state_dict(), fresh.state_dict()) == set()
        for step in range(2, 5):  # across the flush
            assert original.train_step(X[step], Y[step]) == fresh.train_step(
                X[step], Y[step]
            )
        assert changed_paths(original.state_dict(), fresh.state_dict()) == set()
